// Package lint is Gaea's in-tree static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, object facts, a fact-carrying driver), plus a
// module loader that type-checks the whole tree from source via
// `go list -export` and the gc importer. The analyzers under
// internal/lint/* mechanically encode the kernel's cross-layer
// contracts, and cmd/gaea-vet runs them as one blocking multichecker.
//
// The framework exists in-tree because the module is intentionally
// dependency-free: the container and CI build with the standard library
// alone, so the x/tools analysis driver is not available. The API
// mirrors it closely enough that every per-package analyzer would port
// to *analysis.Analyzer mechanically.
//
// # The analyzers
//
// ctxflow — no context.Background()/TODO() outside package main and
// tests. Gaea threads one context from the session boundary down through
// kernel, query, and storage so remote cancellation (PR 5) actually
// stops work; a fresh Background() mid-stack silently severs that chain.
// The three legitimate roots (client dial timeout, server accept-loop
// root, the derivation refresher owned by Close) carry allow comments.
//
// errtaxonomy — exported functions of the root package that return
// errors must not leak raw internal/* errors: every error crossing the
// public boundary goes through classify(), so callers can rely on the
// errors.Is taxonomy (ErrNotFound, ErrConflict, ...) instead of matching
// strings from storage internals. fmt.Errorf with %w propagates the
// obligation; classify() discharges it.
//
// lockorder — the kernel's mutexes form a strict acquisition order
// (object.Store.commitMu < storage.Store.mu < Heap.mu < bufferPool.mu <
// Store.metaMu < wal.mu < object.Store.mu). The analyzer walks each
// function with a held-set, follows helper calls through exported lock
// facts, and reports any acquisition that inverts the order — the class
// of deadlock that only reproduces under load.
//
// poolsafe — a *wire.Frame from AcquireFrame is owned until released
// exactly once: ReleaseFrame, OutQueue.Push, a channel send, returning
// it, or handing it to a function whose fact says it takes ownership.
// The analyzer tracks each acquired frame along every path and reports
// leaks, double releases, and uses after release — the bugs that
// corrupt the pool long after the offending call returns.
//
// spanend — every span minted by obs.Start/StartWith must End on every
// path (defer is the idiom); a span that escapes to another component is
// that component's to end. Unended spans hold slow-op state forever and
// poison the tracer's ring buffer.
//
// deadcode — every function is reachable from an entry point. It is the
// one whole-module analyzer (Analyzer.RunModule): it reasons over every
// package of the module whatever the patterns, so a narrower pattern
// cannot make live code look dead, and reports only in the packages the
// patterns name. Its roots are main/init of the programs under cmd/,
// examples/ and bench/; the exported functions, and the exported methods
// of exported types, of the root package and client; and the
// initialisers of blank package-level variables and of those that call
// a function (any other variable is walked once a reached body reads
// it). A reached function makes live everything its
// body calls or refers to (closures, method values, generic
// instantiations), and a method of a reached type is live when the type
// satisfies an interface the module declares or converts to, or the
// standard library looks it up by name (String, Error, MarshalJSON). An
// exported field such as Kernel.Tasks is no root: a manager method is
// live only if a root calls it, or the kernel's twelve handles would
// keep the whole tree alive. bench/ is not reported: its files change
// only with the benchmark. A //lint:gaea-allow deadcode comment makes a
// function a root, with one of three reasons: a paper-figure or
// experiment benchmark reaches it (name it), a ROADMAP item builds on it
// (name the item), or it is a test helper called by tests in other
// packages. A helper only its own package's tests call moves into a
// _test.go file.
//
// wirebounds — an allocation sized by a wire-decoded integer must be
// bounded first: compare against a real limit (`n > 0` does not count)
// or clamp with Dec.Cap. A v2 body is at most MaxFrame bytes, but a
// uvarint inside it can claim 2^64 elements; unchecked, a 10-byte frame
// demands terabytes — a remote OOM this analyzer caught in the original
// decoders.
//
// # Suppression
//
// A diagnostic is suppressed by an adjacent comment, on the flagged line
// or the line above:
//
//	//lint:gaea-allow <analyzer>[,<analyzer>...] <reason>
//
// The analyzer list may be "all". The reason is free text but is the
// convention — an allow without one should not survive review. Each
// suppression is a reviewed, documented exception; the suite stays
// blocking in CI precisely because escapes are explicit.
//
// # Facts
//
// Analyzers may attach facts to objects (Pass.ExportObjectFact) for
// downstream packages in the same run; the driver analyzes packages in
// dependency order, so facts always flow import-first, and in-package
// recursion is handled by each analyzer's own fixed-point loop. Load
// type-checks every package of the module, but per-package analyzers run
// on the packages the patterns name alone, so facts flow only from
// those.
package lint
