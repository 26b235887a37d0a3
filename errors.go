package gaea

import (
	"errors"
	"fmt"

	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/experiment"
	"gaea/internal/object"
	"gaea/internal/petri"
	"gaea/internal/process"
	"gaea/internal/query"
	"gaea/internal/storage"
	"gaea/internal/task"
	"gaea/internal/wire"
)

// The typed error taxonomy of the public API. Every error a Kernel (or
// Session, or Stream) returns is classified against these sentinels, so
// callers branch with errors.Is instead of matching the ad-hoc strings
// of the internal packages:
//
//	if errors.Is(err, gaea.ErrNotFound) { ... }
//
// The internal cause stays wrapped underneath — errors.Is against the
// internal sentinels (object.ErrNotFound, petri.ErrNoPlan, …) keeps
// working for callers that reach below the public surface.
//
// All but ErrFormat, which Open alone returns, are rows of internal/wire's
// taxonomy table, so a remote caller (package client) gets them back too.
var (
	// ErrNotFound: an object, task, process, concept, or experiment the
	// request names does not resolve.
	ErrNotFound = wire.ErrNotFound
	// ErrClassUnknown: the request names a class the catalog has never
	// seen.
	ErrClassUnknown = wire.ErrClassUnknown
	// ErrNoPlan: the request cannot be satisfied — stored data do not
	// match and backward chaining found no derivation to produce them.
	ErrNoPlan = wire.ErrNoPlan
	// ErrStale: the operation refuses to run over stale derived data
	// (e.g. reproducing a task whose recorded input was invalidated).
	ErrStale = wire.ErrStale
	// ErrConflict: a concurrent mutation beat this one to the same
	// object between staging and commit (first-committer-wins).
	ErrConflict = wire.ErrConflict
	// ErrSnapshotGone: a stream cursor (or re-pinned snapshot) names an
	// MVCC epoch the garbage collector has already reclaimed past; the
	// page cannot be resumed consistently. Re-issue the query for a fresh
	// snapshot.
	ErrSnapshotGone = wire.ErrSnapshotGone
	// ErrClosed: the kernel (or the session) has been closed.
	ErrClosed = wire.ErrClosed
	// ErrFormat: Open found a directory written in another on-disk format
	// than this build's. There is no migration path; nothing in the
	// directory was changed.
	ErrFormat = errors.New("gaea: unsupported directory format")
)

// classification order matters: the first matching cause wins, and more
// specific causes (a conflict is often also a not-found underneath) come
// first.
var errTaxonomy = []struct{ cause, sentinel error }{
	{object.ErrSnapshotGone, ErrSnapshotGone},
	{object.ErrConflict, ErrConflict},
	{task.ErrStaleInput, ErrStale},
	{catalog.ErrClassNotFound, ErrClassUnknown},
	{petri.ErrNoPlan, ErrNoPlan},
	{query.ErrUnsatisfied, ErrNoPlan},
	{object.ErrNotFound, ErrNotFound},
	{task.ErrTaskNotFound, ErrNotFound},
	{process.ErrProcessNotFound, ErrNotFound},
	{concept.ErrNotFound, ErrNotFound},
	{experiment.ErrNotFound, ErrNotFound},
	{storage.ErrNotFound, ErrNotFound},
	{storage.ErrFormat, ErrFormat},
}

// classify wraps an internal error with its public sentinel. Errors that
// already carry a sentinel (or match none) pass through unchanged.
func classify(err error) error {
	if err == nil {
		return nil
	}
	for _, m := range errTaxonomy {
		if errors.Is(err, m.cause) {
			if errors.Is(err, m.sentinel) {
				return err
			}
			return fmt.Errorf("%w: %w", m.sentinel, err)
		}
	}
	return err
}
