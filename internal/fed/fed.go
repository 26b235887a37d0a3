// Package fed scales one Gaea kernel out to N: a router that
// partitions the object store by class across shard kernels, each an
// unmodified `gaea serve` endpoint, and speaks the ordinary client
// surface upstream. It is the Graywulf-style federation layer over the
// scientific DBMS: the paper's single memory-resident kernel stays the
// unit of deployment, and the grid is an orchestration of them.
//
// Quick start:
//
//	r, err := fed.Open([]string{"db1:7411", "db2:7411"}, fed.Options{
//		Map:         map[string][]int{"image": {0}, "grid": {0, 1}},
//		DecisionLog: "/var/gaea/fed.decisions",
//	})
//	if err != nil { ... }
//	defer r.Close()
//	var k client.Kernel = r // sessions, queries, streams, snapshots
//
// (Callers that already speak client.DialKernel get the same router
// implicitly by dialing a comma-separated endpoint list.)
//
// Partitioning. Options.Map pins each class to its owning shards; a
// class may be striped over several. Unmapped classes hash (FNV-1a) to
// one shard, so every class deterministically has owners without
// configuration. Objects surface upstream with the owning shard's index
// tagged into OID bits 48–62, which is how point operations (snapshot
// Get, Update, Delete, Explain) route back without a lookup: the OID is
// the partition key. Shard 0 tags are the identity, so a one-shard
// federation is byte-compatible with a plain kernel.
//
// Queries scatter to the owning shards and merge. Streaming queries
// merge shard push-streams round-robin under each downstream credit
// window, and the resume token generalises to a VECTOR cursor — one
// per-shard cursor plus epoch each — so a consumer that stops mid-merge
// resumes every shard at its exact object, on any connection, exactly
// as single-kernel cursors do.
//
// Sessions stage locally, split the batch by partition key, and commit:
// a batch touching ONE shard commits in that shard's ordinary one-round
// -trip path; a batch spanning shards runs two-phase commit — prepare
// (validate + lock + durable vote) on every shard, a coordinator
// decision fsynced to Options.DecisionLog, then the decide fan-out.
// Open replays undelivered decisions from the log, and shards re-stage
// their durable votes on restart (gaea.ServeOptions.PrepareDir), so a
// crash anywhere between the phases never leaves the grid partially
// committed. See the README's failure matrix for the full story.
package fed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaea"
	"gaea/client"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/wire"
)

func init() {
	client.RegisterFederationDialer(func(addrs []string, opts client.Options) (client.Kernel, error) {
		return Open(addrs, Options{Client: opts})
	})
}

// Options tunes a Router.
type Options struct {
	// Map assigns classes to owning shard indexes (into the Open addrs
	// slice). A class listed with several owners is striped: creates
	// spread across them and queries scatter to all of them. Classes
	// absent from the map hash to a single shard.
	Map map[string][]int
	// Client tunes every downstream shard connection (user, protocol,
	// page size, tracer, ...).
	Client client.Options
	// DecisionLog is the path of the coordinator's append-only decision
	// log — the durable commit point of every cross-shard transaction,
	// replayed by Open after a crash. Empty keeps decisions in memory
	// only: cross-shard commits still run 2PC, but a coordinator crash
	// inside the decide fan-out can strand shards on the prepare TTL
	// (presumed abort) after others committed. Set it for any federation
	// that takes cross-shard writes it cares about.
	DecisionLog string
	// StatsInterval is the shard health probe period: the router keeps
	// a SubscribeStats push subscription open to every shard and derives
	// up/degraded/down states from its liveness, surfaced in ObsJSON's
	// fleet block and as shard_up/shard_down events. 0 means the 2s
	// default; negative disables health monitoring.
	StatsInterval time.Duration
}

// Router is the federation coordinator: a client.Kernel whose backing
// store is N shard kernels. Safe for concurrent use. Close closes the
// shard connections (the shards stay up).
type Router struct {
	addrs []string
	conns []*client.Conn
	opts  Options
	log   *decisionLog

	// place spreads creates over a striped class's owners.
	place atomic.Uint64

	reg    *obs.Registry
	tracer *obs.Tracer
	events *obs.EventLog
	health *healthMonitor

	queries  *obs.Counter
	commits  *obs.Counter
	twoPhase *obs.Counter
	acks     *obs.Counter
	unacked  *obs.Counter

	mu     sync.Mutex
	closed bool
}

const (
	// shardShift places the shard tag in OID bits 48–62: below the
	// provisional bit (63), above any OID a kernel mints in practice.
	shardShift = 48
	shardMax   = 1<<15 - 1
	rawOIDMask = 1<<shardShift - 1
)

// tagOID stamps the owning shard into an upstream OID (provisional bit
// preserved). Shard 0 is the identity.
func tagOID(shard int, oid uint64) uint64 {
	return oid&wire.ProvisionalBit | uint64(shard)<<shardShift | oid&rawOIDMask
}

// splitOID recovers the owning shard and the shard-local OID.
func splitOID(oid uint64) (shard int, down uint64) {
	return int(oid &^ wire.ProvisionalBit >> shardShift), oid&wire.ProvisionalBit | oid&rawOIDMask
}

// Open dials every shard endpoint, replays undelivered commit decisions
// from the decision log, and returns the router. Shard indexes — in
// Options.Map, OID tags, cursors, and the decision log — are positions
// in addrs, so a federation must be reopened with the same shard order
// (growing the grid appends).
func Open(addrs []string, opts Options) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: federation needs at least one shard", query.ErrBadRequest)
	}
	if len(addrs) > shardMax {
		return nil, fmt.Errorf("%w: %d shards exceed the %d-shard OID tag space", query.ErrBadRequest, len(addrs), shardMax)
	}
	for class, owners := range opts.Map {
		for _, o := range owners {
			if o < 0 || o >= len(addrs) {
				return nil, fmt.Errorf("%w: class %q maps to shard %d of %d", query.ErrBadRequest, class, o, len(addrs))
			}
		}
	}
	log, err := openDecisionLog(opts.DecisionLog)
	if err != nil {
		return nil, err
	}
	if opts.Client.Tracer == nil {
		// The shard connections must share the router's tracer either
		// way: they stamp the current span's trace ID on downstream
		// frames, which is what joins client → router → shard spans
		// into one tree.
		opts.Client.Tracer = obs.NewTracer(0)
	}
	r := &Router{addrs: addrs, opts: opts, log: log, reg: obs.NewRegistry()}
	r.tracer = opts.Client.Tracer
	r.events = obs.NewEventLog(0)
	r.queries = r.reg.Counter("fed_queries_total")
	r.commits = r.reg.Counter("fed_commits_total")
	r.twoPhase = r.reg.Counter("fed_2pc_commits_total")
	r.acks = r.reg.Counter("fed_2pc_acks_total")
	r.unacked = r.reg.Counter("fed_2pc_unacked_total")
	// The decision log is the authority on 2PC outcomes — exporting it
	// as computed gauges keeps the counts right across replay, live
	// commits, and coordinator restarts alike.
	r.reg.GaugeFunc("fed_2pc_pending_decisions", func() int64 { return int64(log.pendingCount()) })
	r.reg.GaugeFunc("fed_2pc_heuristic_total", func() int64 { return int64(log.heuristicCount()) })
	for i, addr := range addrs {
		c, err := client.Dial(addr, opts.Client)
		if err != nil {
			for _, open := range r.conns {
				_ = open.Close()
			}
			_ = log.close()
			return nil, fmt.Errorf("fed: shard %d (%s): %w", i, addr, err)
		}
		r.conns = append(r.conns, c)
	}
	r.replayDecisions()
	if opts.StatsInterval >= 0 {
		interval := opts.StatsInterval
		if interval == 0 {
			interval = defaultHealthInterval
		}
		r.health = startHealth(r, interval)
	}
	return r, nil
}

// replayDecisions re-delivers every logged commit decision that some
// shard has not acknowledged — the coordinator half of crash recovery.
// A shard that already applied (or never saw) the transaction answers
// idempotently; a shard whose durable vote expired answers not-found,
// which is recorded as a heuristic outcome and not retried.
func (r *Router) replayDecisions() {
	for _, p := range r.log.undelivered() {
		for _, shard := range p.shards {
			if shard < 0 || shard >= len(r.conns) {
				continue
			}
			//lint:gaea-allow ctxflow recovery replay runs once at Open, bounded by the dial timeouts
			_, err := r.conns[shard].RoundTrip(context.Background(),
				&wire.Request{Op: wire.OpDecide, Lease: p.token, Epoch: 1})
			switch {
			case err == nil:
				r.log.ack(p.token, shard)
			case errors.Is(err, gaea.ErrNotFound):
				// The shard's vote is gone (prepare TTL elapsed or it
				// restarted without a durable vote): heuristic outcome —
				// recorded, never retried, surfaced by Stats.
				r.log.heuristic(p.token, shard)
			default:
				// Unreachable shard: keep the decision pending for the
				// next replay.
			}
		}
	}
}

// owners resolves the shards owning a class: the partition map entry,
// or an FNV-1a hash pick for unmapped classes.
func (r *Router) owners(class string) []int {
	if own := r.opts.Map[class]; len(own) > 0 {
		return own
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(class))
	return []int{int(h.Sum32() % uint32(len(r.conns)))}
}

// placeCreate picks the shard a new object of a class lands on:
// the sole owner, or round-robin over a striped class's owners.
func (r *Router) placeCreate(class string) int {
	own := r.owners(class)
	if len(own) == 1 {
		return own[0]
	}
	return own[int(r.place.Add(1)%uint64(len(own)))]
}

func (r *Router) checkOpen() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("%w: federation router closed", gaea.ErrClosed)
	}
	return nil
}

// Close closes every shard connection and the decision log. The shards
// themselves stay up. Idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.health.stop()
	var first error
	for _, c := range r.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := r.log.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Shards reports the federation width.
func (r *Router) Shards() int { return len(r.conns) }

// traced installs the router's tracer on ctx (downstream calls stamp
// the trace and parent-span IDs on the wire, so shard-side spans join
// the same trace).
func (r *Router) traced(ctx context.Context) context.Context {
	return obs.WithTracer(ctx, r.tracer)
}

// Query implements client.Kernel: scatter to the owning shards, gather,
// and merge. Single-owner classes pass through with only the OID tag
// applied.
func (r *Router) Query(ctx context.Context, req gaea.Request) (*gaea.Result, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(r.traced(ctx), "fed/query")
	defer sp.End()
	sp.Annotate("class", req.Class)
	r.queries.Inc()
	own := r.owners(req.Class)
	sp.Annotate("shards", fmt.Sprint(len(own)))
	results := make([]*gaea.Result, len(own))
	errs := make([]error, len(own))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, shard := range own {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.conns[shard].Query(ctx, req)
			results[i], errs[i] = res, err
			if err != nil && !errors.Is(err, gaea.ErrNoPlan) {
				cancel() // no point finishing the other shards
			}
		}()
	}
	wg.Wait()
	// A shard that cannot derive the class at all (no stored objects,
	// no producing process) contributes an empty result — for a striped
	// class that's a normal state, every row having landed elsewhere so
	// far. Only when EVERY owner says no-plan is that the federation's
	// answer too. Other errors fail the scatter; prefer the causing
	// error over the cancellations it induced in sibling shards.
	var firstErr, noPlanErr error
	noPlan := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, gaea.ErrNoPlan) {
			noPlan++
			noPlanErr = err
			results[i] = &gaea.Result{}
			continue
		}
		if firstErr == nil || errors.Is(firstErr, context.Canceled) {
			firstErr = fmt.Errorf("fed: shard %d query: %w", own[i], err)
		}
	}
	if firstErr != nil {
		sp.Annotate("error", firstErr.Error())
		return nil, firstErr
	}
	if noPlan == len(own) {
		sp.Annotate("error", noPlanErr.Error())
		return nil, noPlanErr
	}
	return r.mergeResults(own, results), nil
}

// mergeResults folds per-shard query results into one, tagging OIDs
// with their owning shard. Shard order is owner order, so the merge is
// deterministic. How, Stale, and TasksRun concatenate in the same
// order (Stale pads with false for shards that reported none, keeping
// the parallel-slice contract).
func (r *Router) mergeResults(own []int, results []*gaea.Result) *gaea.Result {
	if len(results) == 1 {
		return r.tagResult(own[0], results[0])
	}
	out := &gaea.Result{}
	var plans []string
	for i, res := range results {
		shard := own[i]
		base := len(out.OIDs)
		for _, oid := range res.OIDs {
			out.OIDs = append(out.OIDs, object.OID(tagOID(shard, uint64(oid))))
		}
		out.How = append(out.How, res.How...)
		switch {
		case res.Stale != nil:
			if out.Stale == nil {
				out.Stale = make([]bool, base)
			}
			out.Stale = append(out.Stale, res.Stale...)
		case out.Stale != nil:
			out.Stale = append(out.Stale, make([]bool, len(res.OIDs))...)
		}
		out.TasksRun = append(out.TasksRun, res.TasksRun...)
		if res.PlanText != "" {
			plans = append(plans, fmt.Sprintf("shard %d: %s", shard, res.PlanText))
		}
	}
	out.PlanText = strings.Join(plans, "\n")
	return out
}

func (r *Router) tagResult(shard int, res *gaea.Result) *gaea.Result {
	if shard != 0 {
		for i, oid := range res.OIDs {
			res.OIDs[i] = object.OID(tagOID(shard, uint64(oid)))
		}
	}
	// A shard-local epoch means nothing upstream; zero it rather than
	// let a caller pin the wrong shard's history with it.
	res.Epoch = 0
	return res
}

// QueryStream implements client.Kernel: a round-robin merge of per-
// shard push streams, resumable via a vector cursor.
func (r *Router) QueryStream(ctx context.Context, req gaea.Request) (client.Stream, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newFedStream(r, ctx, req, func(ctx context.Context, shard int, req gaea.Request) (client.Stream, error) {
		return r.conns[shard].QueryStream(ctx, req)
	})
}

// Begin implements client.Kernel. No round trip happens here: each
// shard's MVCC read epoch is captured lazily by the first staged
// operation that touches it (the single-shard fast path then pays
// exactly one extra round trip, total two — same as a plain remote
// session's Begin + Commit).
func (r *Router) Begin(ctx context.Context) client.Session {
	s := &fedSession{r: r, ctx: ctx, shards: make(map[int]*shardBatch)}
	if err := r.checkOpen(); err != nil {
		s.broken = err
	} else if err := ctx.Err(); err != nil {
		s.broken = err
	}
	return s
}

// Snapshot implements client.Kernel: one snapshot lease per shard,
// opened together. The federation-wide view is per-shard consistent
// (each shard's lease pins one of ITS commit epochs); there is no
// cross-shard barrier, so a cross-shard transaction committing while
// the snapshots open may be visible on one shard and not yet on
// another.
func (r *Router) Snapshot(ctx context.Context) (client.Snapshot, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	snaps := make([]client.Snapshot, len(r.conns))
	for shard, c := range r.conns {
		sn, err := c.Snapshot(ctx)
		if err != nil {
			for _, open := range snaps[:shard] {
				open.Release()
			}
			return nil, fmt.Errorf("fed: shard %d snapshot: %w", shard, err)
		}
		snaps[shard] = sn
	}
	return &fedSnapshot{r: r, snaps: snaps}, nil
}

// Stale implements client.Kernel: the tagged union of every shard's
// stale set (nil on total transport failure, like a plain connection).
func (r *Router) Stale() []object.OID {
	if r.checkOpen() != nil {
		return nil
	}
	var out []object.OID
	for shard, c := range r.conns {
		for _, oid := range c.Stale() {
			out = append(out, object.OID(tagOID(shard, uint64(oid))))
		}
	}
	return out
}

// RefreshStale implements client.Kernel: every shard refreshes its own
// derivations; the count sums.
func (r *Router) RefreshStale(ctx context.Context) (int, error) {
	if err := r.checkOpen(); err != nil {
		return 0, err
	}
	total := 0
	for shard, c := range r.conns {
		n, err := c.RefreshStale(ctx)
		total += n
		if err != nil {
			return total, fmt.Errorf("fed: shard %d refresh: %w", shard, err)
		}
	}
	return total, nil
}

// Explain implements client.Kernel: the OID's shard tag routes the
// lookup.
func (r *Router) Explain(oid object.OID) string {
	if err := r.checkOpen(); err != nil {
		return fmt.Sprintf("explain %d: %v\n", oid, err)
	}
	shard, down := splitOID(uint64(oid))
	if shard >= len(r.conns) {
		return fmt.Sprintf("explain %d: no shard %d in this federation\n", oid, shard)
	}
	return r.conns[shard].Explain(object.OID(down))
}

// ExplainQuery implements client.Kernel: every owning shard explains
// its part.
func (r *Router) ExplainQuery(ctx context.Context, req gaea.Request) (string, error) {
	if err := r.checkOpen(); err != nil {
		return "", err
	}
	own := r.owners(req.Class)
	var b strings.Builder
	for _, shard := range own {
		text, err := r.conns[shard].ExplainQuery(ctx, req)
		if err != nil {
			return "", fmt.Errorf("fed: shard %d explain: %w", shard, err)
		}
		if len(own) > 1 {
			fmt.Fprintf(&b, "shard %d (%s):\n", shard, r.addrs[shard])
		}
		b.WriteString(text)
	}
	return b.String(), nil
}

// Stats implements client.Kernel: one block per shard plus the
// coordinator's own counters (including heuristic outcomes, which
// demand an operator's eye).
func (r *Router) Stats() (string, error) {
	if err := r.checkOpen(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "federation: %d shards, %d queries, %d commits (%d cross-shard), %d pending decisions, %d heuristic\n",
		len(r.conns), r.queries.Load(), r.commits.Load(), r.twoPhase.Load(), r.log.pendingCount(), r.log.heuristicCount())
	for shard, c := range r.conns {
		st, err := c.Stats()
		if err != nil {
			return "", fmt.Errorf("fed: shard %d stats: %w", shard, err)
		}
		fmt.Fprintf(&b, "-- shard %d (%s) --\n%s\n", shard, r.addrs[shard], strings.TrimRight(st, "\n"))
	}
	return b.String(), nil
}

// ObsJSON is the router's observability export, shaped exactly like a
// kernel's so `gaea trace -connect` grafts router spans the same way —
// plus the fleet block: one health row per shard from the monitor's
// live SubscribeStats subscriptions.
func (r *Router) ObsJSON() []byte {
	b, err := json.Marshal(gaea.ObsExport{
		Stats:   gaea.StatsSnapshot{Metrics: r.reg.Snapshot()},
		Traces:  r.tracer.Recent(),
		SlowOps: r.tracer.Slow(),
		Fleet:   r.health.fleet(),
	})
	if err != nil {
		return nil
	}
	return b
}
