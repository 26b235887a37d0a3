package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"gaea"
	"gaea/client"
)

// workload is one data set plus the op streams that drive it.
type workload interface {
	// options are the kernel options the data set is opened with.
	options() gaea.Options
	// load defines the schema and stores the data set through k, which the
	// workload keeps for its answer checks and replays.
	load(ctx context.Context, k *gaea.Kernel) error
	// client builds logical client id's op stream over conn, drawing its
	// inputs from rng.
	client(id int, conn *client.Conn, rng *rand.Rand) opClient
	// verify runs once after the last op and returns how many answers it
	// found wrong beyond those the ops already reported.
	verify(ctx context.Context) (failed int, err error)
	// userBytes is the user payload written so far, set-up included.
	userBytes() int64
	// openProbes prepares the scratch stores the replays write to, under
	// dir; closeProbes releases them. Only the traced run calls them.
	openProbes(dir string) error
	closeProbes() error
}

// opClient is one closed-loop op stream.
type opClient interface {
	// op performs this client's i-th op and reports whether the answer was
	// right; at is where its spans go.
	op(ctx context.Context, i int, at opSpan) bool
	// probe replays the calls of the op last run into each layer, under
	// spans beneath at.root.
	probe(ctx context.Context, at opSpan)
	// digest hashes the inputs of every op run so far: two runs issued
	// the same op sequence iff their digests agree.
	digest() uint64
}

// mix folds v into the running FNV-1a style digest h.
func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// scale shrinks data sizes and op counts; 1 outside the tests.
	scale  float64
	outDir string
}

const (
	// setupRepeats is how often a run builds its data set; setup_s is the
	// median and the last build is the one measured.
	setupRepeats = 3
	// warmupShare of each client's quota runs untimed first.
	warmupShare = 0.05
	// traceShare of the op count is what each phase of a traced run does.
	traceShare = 0.2
	// reopenRepeats is how often the traced run reopens the final
	// directory for storage.reopen_ms.
	reopenRepeats = 3
)

// env is one built data set being served.
type env struct {
	def    workloadDef
	w      workload
	dir    string
	k      *gaea.Kernel
	srv    *gaea.Server
	served chan error
	conns  []*client.Conn
}

// setUp opens a kernel in dir, loads the workload's data set, serves it on
// a unix socket beside it and dials one connection per CPU.
func setUp(ctx context.Context, def workloadDef, cfg config, dir string) (*env, error) {
	e := &env{def: def, w: def.new(cfg.scale, cfg.seed), dir: dir, served: make(chan error, 1)}
	k, err := gaea.Open(filepath.Join(dir, "db"), e.w.options())
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	e.k = k
	if err := e.w.load(ctx, k); err != nil {
		_ = e.tearDown(ctx)
		return nil, fmt.Errorf("load: %w", err)
	}
	sock := filepath.Join(dir, "s")
	l, err := net.Listen("unix", sock)
	if err != nil {
		_ = e.tearDown(ctx)
		return nil, err
	}
	e.srv = k.NewServer(gaea.ServeOptions{})
	go func() { e.served <- e.srv.Serve(l) }()
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := client.Dial("unix://"+sock, client.Options{User: "bench"})
		if err != nil {
			_ = e.tearDown(ctx)
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// stopServing closes the connections and drains the server.
func (e *env) stopServing(ctx context.Context) error {
	var errs []error
	for _, c := range e.conns {
		errs = append(errs, c.Close())
	}
	e.conns = nil
	if e.srv != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		errs = append(errs, e.srv.Shutdown(sctx), <-e.served)
		cancel()
		e.srv = nil
	}
	return errors.Join(errs...)
}

// tearDown stops serving and closes the kernel.
func (e *env) tearDown(ctx context.Context) error {
	err := e.stopServing(ctx)
	if e.k != nil {
		err = errors.Join(err, e.k.Close())
		e.k = nil
	}
	return err
}

// logicalClient is one op stream with its position in the quota.
type logicalClient struct {
	id   int
	ops  opClient
	next int // index of the next op to run
}

// phase is what one stretch of ops measured.
type phase struct {
	lat    []float64 // per-op latency in µs, ascending, failed ops excluded
	ops    int       // ops attempted
	failed int
	wall   time.Duration
	cpu    time.Duration    // getrusage user+sys of the process across the stretch
	mem    runtime.MemStats // deltas of Mallocs, TotalAlloc, PauseTotalNs, NumGC
	before gaea.StatsSnapshot
	after  gaea.StatsSnapshot
	pushed int64 // server push pages sent
	avoid  int64 // bytes shipped verbatim from storage
	spans  []span
	values map[string][]float64 // the replays' non-duration measurements
}

// runPhase drives every logical client through its next n ops, closed
// loop, and measures the stretch. With traced set each op gets a root
// span and every stride-th op is replayed layer by layer.
func (e *env) runPhase(ctx context.Context, clients []*logicalClient, n int, traced bool) (phase, error) {
	var p phase
	lat := make([][]float64, len(clients))
	failed := make([]int, len(clients))
	recs := make([]*recorder, len(clients))
	zero := time.Now()
	for i := range clients {
		lat[i] = make([]float64, 0, n)
		if traced {
			recs[i] = &recorder{client: clients[i].id, zero: zero}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.before = e.k.StatsSnapshot()
	s0 := e.srv.Stats()
	cpu0, err := cpuTime()
	if err != nil {
		return p, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := recs[ci]
			for i := c.next; i < c.next+n; i++ {
				at := opSpan{rec: rec, op: uint64(c.id)<<32 | uint64(i)}
				at.root = rec.begin(at.op, 0, e.def.root)
				t0 := time.Now()
				ok := c.ops.op(ctx, i, at)
				d := time.Since(t0)
				rec.end(at.root, 1)
				if !ok {
					failed[ci]++
					continue
				}
				lat[ci] = append(lat[ci], float64(d)/1e3)
				if traced && i%e.def.stride == 0 {
					c.ops.probe(ctx, at)
				}
			}
			c.next += n
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	s1 := e.srv.Stats()
	p.pushed, p.avoid = s1.PushedPages-s0.PushedPages, s1.BytesAvoided-s0.BytesAvoided
	p.after = e.k.StatsSnapshot()
	runtime.ReadMemStats(&m1)
	p.mem.Mallocs = m1.Mallocs - m0.Mallocs
	p.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	p.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	p.mem.NumGC = m1.NumGC - m0.NumGC
	p.ops = n * len(clients)
	for i := range clients {
		p.lat = append(p.lat, lat[i]...)
		p.failed += failed[i]
		if traced {
			p.spans = append(p.spans, recs[i].spans...)
			for name, vs := range recs[i].values {
				if p.values == nil {
					p.values = map[string][]float64{}
				}
				p.values[name] = append(p.values[name], vs...)
			}
		}
	}
	slices.Sort(p.lat)
	return p, nil
}

// opsPerS is the phase's throughput in successful ops per second.
func (p *phase) opsPerS() float64 { return float64(len(p.lat)) / p.wall.Seconds() }

// result is everything one run measured.
type result struct {
	def       workloadDef
	cfg       config
	setup     []float64 // seconds, one per build
	quota     int       // ops per logical client over the whole run
	warmup    int       // of which untimed, per logical client
	clients   int
	measured  phase // the untraced phase: every end-to-end figure
	traced    phase // the traced phase (traced runs only)
	verified  int   // failures verify found after the last op
	userBytes int64
	diskBytes int64
	reopen    []float64 // ms
	digest    uint64    // of every client's op inputs, in client order
	rssMiB    float64
	staleEnd  int
	fs        string
}

// run executes one (workload, run): build the data set setupRepeats
// times, warm up, measure, verify, checkpoint, close and weigh the
// directory. Scratch files live under cfg.outDir and are removed.
func run(ctx context.Context, cfg config) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &result{def: def, cfg: cfg, fs: fsType(tmp)}

	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.tearDown(ctx); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		if e, err = setUp(ctx, def, cfg, filepath.Join(tmp, fmt.Sprint("run", i))); err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", def.Name, i, err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer func() { _ = e.tearDown(ctx) }() // no-op after the orderly close below

	// Per-client streams and quotas: the same seed issues the same ops.
	r.clients = len(e.conns) * def.logical
	share := cfg.scale
	if cfg.trace {
		share *= traceShare
	}
	r.quota = max(int(float64(def.opsPerSecond*cfg.seconds)*share)/r.clients, 20)
	r.warmup = max(int(float64(r.quota)*warmupShare), 1)
	clients := make([]*logicalClient, r.clients)
	for i := range clients {
		rng := rand.New(rand.NewPCG(cfg.seed, uint64(i)+1))
		clients[i] = &logicalClient{id: i, ops: e.w.client(i, e.conns[i%len(e.conns)], rng)}
	}

	if _, err := e.runPhase(ctx, clients, r.warmup, false); err != nil {
		return nil, err
	}
	runtime.GC()
	if r.measured, err = e.runPhase(ctx, clients, r.quota-r.warmup, false); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := e.w.openProbes(filepath.Join(tmp, "scratch")); err != nil {
			return nil, fmt.Errorf("scratch stores: %w", err)
		}
		r.traced, err = e.runPhase(ctx, clients, r.quota-r.warmup, true)
		err = errors.Join(err, e.w.closeProbes())
		if err != nil {
			return nil, err
		}
	}
	for _, c := range clients {
		r.digest = mix(r.digest, c.ops.digest())
	}
	if r.verified, err = e.w.verify(ctx); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r.staleEnd = len(e.k.Stale())
	r.userBytes = e.w.userBytes()

	// Orderly close, then weigh what is left on disk.
	if err := e.stopServing(ctx); err != nil {
		return nil, err
	}
	if _, err := e.k.Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	dbDir := e.k.Dir()
	if err := e.tearDown(ctx); err != nil {
		return nil, err
	}
	if r.diskBytes, err = dirBytes(dbDir); err != nil {
		return nil, err
	}
	if cfg.trace {
		for i := 0; i < reopenRepeats; i++ {
			t0 := time.Now()
			k, err := gaea.Open(dbDir, e.w.options())
			if err != nil {
				return nil, fmt.Errorf("reopen: %w", err)
			}
			if err := k.Close(); err != nil {
				return nil, fmt.Errorf("reopen close: %w", err)
			}
			r.reopen = append(r.reopen, float64(time.Since(t0))/1e6)
		}
	}
	if r.rssMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	return r, nil
}
