package gaea

// Tests for the server's and the kernel's classification onto wire error
// codes (the table itself is tested in internal/wire) and for snapshot lease
// hygiene: Release idempotence and Kernel.Close releasing leaked pins
// so the MVCC GC horizon can never be wedged by an abandoned snapshot.

import (
	"context"
	"errors"
	"fmt"
	"testing"

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

// TestServeErrorCodes pins err → wire.Code for the whole public
// taxonomy, as the server answers it (wire.CodeOf), bare and wrapped
// exactly as kernel calls return them.
func TestServeErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		want wire.Code
	}{
		{nil, wire.CodeOK},
		{ErrNotFound, wire.CodeNotFound},
		{ErrClassUnknown, wire.CodeClassUnknown},
		{ErrNoPlan, wire.CodeNoPlan},
		{ErrStale, wire.CodeStale},
		{ErrConflict, wire.CodeConflict},
		{ErrSnapshotGone, wire.CodeSnapshotGone},
		{ErrClosed, wire.CodeClosed},
		{query.ErrBadRequest, wire.CodeBadRequest},
		{context.Canceled, wire.CodeCanceled},
		{errors.New("disk on fire"), wire.CodeInternal},
	}
	for _, c := range cases {
		if got := wire.CodeOf(c.err); got != c.want {
			t.Errorf("CodeOf(%v) = %v, want %v", c.err, got, c.want)
		}
		if c.err == nil {
			continue
		}
		wrapped := fmt.Errorf("kernel: %w", c.err)
		if got := wire.CodeOf(wrapped); got != c.want {
			t.Errorf("CodeOf(wrapped %v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestClassifyWireCodes pins the kernel half of the error contract:
// every internal cause classify knows, once classified (and wrapped
// once more, as kernel calls return it), and every error classify
// passes through, answers with the wire code written out here — not
// read from the table, so a table edit that moves one fails this test.
func TestClassifyWireCodes(t *testing.T) {
	want := map[error]wire.Code{
		object.ErrSnapshotGone:     wire.CodeSnapshotGone,
		object.ErrConflict:         wire.CodeConflict,
		task.ErrStaleInput:         wire.CodeStale,
		catalog.ErrClassNotFound:   wire.CodeClassUnknown,
		petri.ErrNoPlan:            wire.CodeNoPlan,
		query.ErrUnsatisfied:       wire.CodeNoPlan,
		object.ErrNotFound:         wire.CodeNotFound,
		task.ErrTaskNotFound:       wire.CodeNotFound,
		process.ErrProcessNotFound: wire.CodeNotFound,
		concept.ErrNotFound:        wire.CodeNotFound,
		experiment.ErrNotFound:     wire.CodeNotFound,
		storage.ErrNotFound:        wire.CodeNotFound,
		storage.ErrFormat:          wire.CodeInternal,
		query.ErrBadRequest:        wire.CodeBadRequest,
		object.ErrBadAttr:          wire.CodeBadRequest,
		context.Canceled:           wire.CodeCanceled,
		context.DeadlineExceeded:   wire.CodeCanceled,
		errors.New("disk on fire"): wire.CodeInternal,
	}
	for _, m := range errTaxonomy {
		if _, ok := want[m.cause]; !ok {
			t.Errorf("classify cause %v has no pinned wire code", m.cause)
		}
	}
	for cause, code := range want {
		err := classify(cause)
		for _, err := range []error{err, fmt.Errorf("kernel: %w", err)} {
			if got := wire.CodeOf(err); got != code {
				t.Errorf("CodeOf(%v) = %v, want %v", err, got, code)
			}
		}
	}
	if classify(nil) != nil || wire.CodeOf(classify(nil)) != wire.CodeOK {
		t.Error("classify(nil) is not nil and CodeOK")
	}
}

// TestMVCCSnapshotReleaseIdempotent: Release twice is one unpin, and a
// release after Kernel.Close already released the pin is a no-op.
func TestMVCCSnapshotReleaseIdempotent(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	if _, err := k.CreateObject(context.Background(), rainObject(1, 0), "seed"); err != nil {
		t.Fatal(err)
	}
	s1, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pins := k.Objects.MVCC().Pins; pins != 2 {
		t.Fatalf("pins = %d, want 2", pins)
	}
	s1.Release()
	s1.Release() // idempotent: must not unpin s2's epoch refcount
	if pins := k.Objects.MVCC().Pins; pins != 1 {
		t.Fatalf("pins after double release = %d, want 1", pins)
	}
	s2.Release()
	if pins := k.Objects.MVCC().Pins; pins != 0 {
		t.Fatalf("pins after releasing all = %d, want 0", pins)
	}
}

// TestMVCCCloseReleasesLeakedSnapshots: a caller that never Releases
// cannot wedge the pin table past Close — the GC horizon of the next
// open starts clean, and Release after Close stays a safe no-op.
func TestMVCCCloseReleasesLeakedSnapshots(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	if _, err := k.CreateObject(context.Background(), rainObject(1, 0), "seed"); err != nil {
		t.Fatal(err)
	}
	leak1, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	leak2, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	released, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	released.Release()
	if pins := k.Objects.MVCC().Pins; pins != 2 {
		t.Fatalf("pins before close = %d, want 2", pins)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if pins := k.Objects.MVCC().Pins; pins != 0 {
		t.Fatalf("pins after close = %d, want 0 (leaked snapshots not released)", pins)
	}
	// Releasing a snapshot Close already released must not double-unpin
	// (the counter would go negative or strip an unrelated pin).
	leak1.Release()
	leak2.Release()
	if pins := k.Objects.MVCC().Pins; pins != 0 {
		t.Fatalf("pins after post-close release = %d, want 0", pins)
	}
}
