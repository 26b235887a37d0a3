// Command gaea is the textual front end to the Gaea kernel (the parser →
// executor path of Figure 1): an interactive shell for browsing the three
// metadata layers, inspecting derivation nets and lineage, and running
// queries — plus the service verbs that run and inspect a Gaea server.
//
// Usage:
//
//	gaea -db /path/to/db [-demo] [-user name]       interactive shell
//	gaea serve -db DIR -listen ADDR [flags]         network server
//	gaea fed -shards A,B,... -listen ADDR [flags]   federation router over served shards
//	gaea stats -connect ADDR[,ADDR...]              remote stats line (table when multiple)
//	gaea top -connect ADDR[,ADDR...] [-watch]       remote metrics & slow-op log (-watch: live table)
//	gaea events -connect ADDR [-follow] [-json]     structured event stream (commits, 2PC, stalls, shard health)
//	gaea trace -connect ADDR[,ADDR...]              run one traced query, print its span tree
//
// ADDR is "unix:///path/to.sock" or "host:port" (TCP). With -demo the
// database is seeded with the Figure 3/Figure 5 schema and two synthetic
// Landsat TM scenes, so every command has something to show.
//
// The inspection verbs accept a comma-separated endpoint list: `stats`
// and `top` then print a merged per-shard table (shard id, epoch, q/s),
// and `trace` runs its query against the FIRST endpoint while grafting
// the matching server spans from every endpoint — pointing it at a
// router plus its shards renders the three-level client → router →
// shard span tree of one federated query.
//
// `gaea top -watch` holds a SubscribeStats push subscription to every
// endpoint and repaints a live fleet table each period: state (an
// endpoint whose feed breaks flips to down within one period), query/
// commit/request rates, and the request p99. `gaea events` prints the
// structured event log — commit groups, checkpoints, derivation sweeps,
// lease expiries, 2PC outcomes, stalls, shard up/down — and with
// -follow stays subscribed, resuming across server restarts at the last
// seen sequence; -json emits one Event JSON object per line.
//
// `gaea serve` runs until SIGINT/SIGTERM, then shuts down gracefully:
// it stops accepting, drains in-flight requests (streams are paged, so
// nothing blocks the drain for long), releases every remote snapshot
// lease, and closes the kernel.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gaea"
	"gaea/client"
	"gaea/internal/catalog"
	"gaea/internal/fed"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/server"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "fed":
			fedMain(os.Args[2:])
			return
		case "stats":
			statsMain(os.Args[2:])
			return
		case "top":
			topMain(os.Args[2:])
			return
		case "events":
			eventsMain(os.Args[2:])
			return
		case "trace":
			traceMain(os.Args[2:])
			return
		}
	}
	dbDir := flag.String("db", "", "database directory (required)")
	demo := flag.Bool("demo", false, "seed the database with the demo schema and scenes")
	user := flag.String("user", os.Getenv("USER"), "user recorded on derivations")
	flag.Parse()
	if *dbDir == "" {
		fmt.Fprintln(os.Stderr, "usage: gaea -db DIR [-demo] [-user NAME]")
		fmt.Fprintln(os.Stderr, "       gaea serve -db DIR -listen ADDR")
		fmt.Fprintln(os.Stderr, "       gaea fed -shards ADDR,ADDR,... -listen ADDR")
		fmt.Fprintln(os.Stderr, "       gaea stats -connect ADDR[,ADDR...]")
		fmt.Fprintln(os.Stderr, "       gaea top -connect ADDR[,ADDR...] [-watch]")
		fmt.Fprintln(os.Stderr, "       gaea events -connect ADDR [-follow] [-json]")
		fmt.Fprintln(os.Stderr, "       gaea trace -connect ADDR[,ADDR...]")
		os.Exit(2)
	}
	k, err := gaea.Open(*dbDir, gaea.Options{User: *user})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer k.Close()

	if *demo {
		if err := seedDemo(k); err != nil {
			fmt.Fprintln(os.Stderr, "seed:", err)
			os.Exit(1)
		}
		fmt.Println("demo schema and scenes loaded")
	}

	fmt.Println("gaea shell — 'help' lists commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("gaea> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Print(helpText)
		case "stats":
			fmt.Println(k.Stats())
		case "classes":
			for _, n := range k.Catalog.Names() {
				cls, _ := k.Catalog.Class(n)
				fmt.Printf("  %-24s %-8s derived-by=%s\n", n, cls.Kind, orDash(cls.DerivedBy))
			}
		case "class":
			if len(args) != 1 {
				fmt.Println("usage: class NAME")
				continue
			}
			cls, err := k.Catalog.Class(args[0])
			if err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Printf("CLASS %s (%s) // %s\n", cls.Name, cls.Kind, cls.Doc)
			for _, a := range cls.Attrs {
				fmt.Printf("  %-16s %s\n", a.Name, a.Type)
			}
			if cls.HasSpatial {
				fmt.Printf("  SPATIAL EXTENT in %s\n", cls.Frame)
			}
			if cls.HasTemporal {
				fmt.Println("  TEMPORAL EXTENT")
			}
			if cls.DerivedBy != "" {
				fmt.Printf("  DERIVED BY %s\n", cls.DerivedBy)
			}
			fmt.Printf("  retrieval functions: %s\n", strings.Join(cls.RetrievalFunctions(), ", "))
			fmt.Printf("  stored objects: %d\n", k.Objects.Count(cls.Name))
		case "processes":
			for _, n := range k.Processes.Names() {
				kind := "primitive"
				if k.Processes.IsCompound(n) {
					kind = "compound"
				}
				fmt.Printf("  %-32s %-10s versions=%v\n", n, kind, k.Processes.Versions(n))
			}
		case "process":
			if len(args) != 1 {
				fmt.Println("usage: process NAME")
				continue
			}
			if k.Processes.IsCompound(args[0]) {
				c, err := k.Processes.LookupCompound(args[0])
				if err != nil {
					fmt.Println(err)
					continue
				}
				fmt.Println(c.Source)
				steps, out, err := k.Processes.Expand(args[0])
				if err == nil {
					fmt.Println("expansion:")
					for i, s := range steps {
						fmt.Printf("  %d. %s = %s(%s)\n", i+1, s.Result, s.Process, strings.Join(s.Args, ", "))
					}
					fmt.Printf("  output: %s\n", out)
				}
				continue
			}
			pr, err := k.Processes.Lookup(args[0])
			if err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Println(pr.Source)
		case "operators":
			for _, n := range k.Registry.Names() {
				op, _ := k.Registry.Lookup(n)
				fmt.Printf("  %-60s %s\n", op.Signature(), op.Doc)
			}
		case "concepts":
			for _, n := range k.Concepts.Names() {
				c, _ := k.Concepts.Get(n)
				fmt.Printf("  %-28s classes=%v parents=%v\n", n, c.Classes, c.Parents)
			}
		case "net":
			n, err := k.Net()
			if err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Print(n.String())
		case "tasks":
			for _, t := range k.Tasks.All() {
				// A load task lists the whole set its session created.
				out := fmt.Sprint(t.Output)
				if n := t.NumOutputs(); n > 1 {
					out = fmt.Sprintf("%d(+%d)", t.Output, n-1)
				}
				fmt.Printf("  task %-4d %-32s v%-2d out=%-4s user=%s\n", t.ID, t.Process, t.Version, out, orDash(t.User))
			}
		case "explain":
			if len(args) != 1 {
				fmt.Println("usage: explain OID")
				continue
			}
			oid, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				fmt.Println("bad oid:", args[0])
				continue
			}
			fmt.Print(k.Explain(object.OID(oid)))
		case "query":
			if len(args) < 1 {
				fmt.Println("usage: query CLASS|CONCEPT [preview]")
				continue
			}
			req := gaea.Request{Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
			if k.Catalog.Exists(args[0]) {
				req.Class = args[0]
			} else {
				req.Concept = args[0]
			}
			if len(args) > 1 && args[1] == "preview" {
				text, err := k.ExplainQuery(context.Background(), req)
				if err != nil {
					fmt.Println(err)
					continue
				}
				fmt.Print(text)
				continue
			}
			res, err := k.Query(context.Background(), req)
			if err != nil {
				fmt.Println(err)
				continue
			}
			for i, oid := range res.OIDs {
				fmt.Printf("  object %d via %s\n", oid, res.How[i])
			}
			if res.PlanText != "" {
				fmt.Print(res.PlanText)
			}
		default:
			fmt.Printf("unknown command %q; try help\n", cmd)
		}
	}
}

// serveMain is the `gaea serve` verb: open (or seed) a database and
// serve it over the wire protocol until a signal asks for shutdown.
func serveMain(args []string) {
	fs := flag.NewFlagSet("gaea serve", flag.ExitOnError)
	dbDir := fs.String("db", "", "database directory (required)")
	listen := fs.String("listen", "", `listen address: "unix:///path/to.sock" or "host:port" (required)`)
	demo := fs.Bool("demo", false, "seed the database with the demo schema and scenes")
	user := fs.String("user", os.Getenv("USER"), "default user recorded on derivations")
	maxConns := fs.Int("max-conns", 0, "connection limit (0 = unlimited)")
	lease := fs.Duration("lease", 0, "snapshot/cursor lease TTL (0 = 30s)")
	pageSize := fs.Int("page", 0, "stream page size cap (0 = 256)")
	nosync := fs.Bool("nosync", false, "disable per-write WAL fsync (tests and benchmarks)")
	prepDir := fs.String("prepare-dir", "", "directory for durable two-phase-commit votes (required to serve as a federation shard that survives restarts)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	debugAddr := fs.String("debug-addr", "", "loopback HTTP address for /metrics, /traces and pprof (e.g. 127.0.0.1:0; off by default)")
	_ = fs.Parse(args)
	if *dbDir == "" || *listen == "" {
		fmt.Fprintln(os.Stderr, "usage: gaea serve -db DIR -listen ADDR [-demo] [-user NAME] [-max-conns N] [-lease TTL] [-page N] [-nosync] [-prepare-dir DIR] [-drain D]")
		os.Exit(2)
	}
	k, err := gaea.Open(*dbDir, gaea.Options{User: *user, NoSync: *nosync})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	if *demo {
		if err := seedDemo(k); err != nil {
			fmt.Fprintln(os.Stderr, "seed:", err)
			os.Exit(1)
		}
	}
	network, address, err := client.SplitAddr(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	if network == "unix" {
		_ = os.Remove(address) // a previous run's stale socket file
	}
	l, err := net.Listen(network, address)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	srv := k.NewServer(gaea.ServeOptions{
		MaxConns:      *maxConns,
		SnapshotLease: *lease,
		PageSize:      *pageSize,
		PrepareDir:    *prepDir,
		DebugAddr:     *debugAddr,
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	fmt.Printf("gaea: serving %s on %s://%s\n", *dbDir, network, address)
	if *debugAddr != "" {
		// The debug listener binds inside Serve; poll briefly so the bound
		// address (meaningful with ":0") reaches the log.
		for i := 0; i < 100 && srv.DebugAddr() == ""; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if a := srv.DebugAddr(); a != "" {
			fmt.Printf("gaea: debug endpoint on http://%s (metrics, traces, pprof)\n", a)
		}
	}
	failed := false
	select {
	case s := <-sig:
		fmt.Printf("gaea: %v — draining (up to %v)\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(ctx); err != nil {
			// The drain window expired and in-flight requests were
			// force-cancelled: that is not a clean stop.
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			failed = true
		}
		cancel()
		<-done
	case err := <-done:
		// Serve only returns on its own when the listener broke: that is
		// a crash, and supervisors must see a non-zero exit.
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			failed = true
		}
	}
	if network == "unix" {
		_ = os.Remove(address)
	}
	if err := k.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("gaea: server stopped")
}

// statsMain is the `gaea stats` verb: print a served kernel's stats
// line (kernel counters plus server counters) and exit. A comma-
// separated endpoint list prints the merged per-shard table instead.
func statsMain(args []string) {
	fs := flag.NewFlagSet("gaea stats", flag.ExitOnError)
	connect := fs.String("connect", "", `server address(es): "unix:///path/to.sock" or "host:port", comma-separated for a shard table (required)`)
	user := fs.String("user", os.Getenv("USER"), "user announced to the server")
	interval := fs.Duration("interval", time.Second, "sampling window for the per-shard q/s column")
	_ = fs.Parse(args)
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "usage: gaea stats -connect ADDR[,ADDR...]")
		os.Exit(2)
	}
	if addrs := splitEndpoints(*connect); len(addrs) > 1 {
		if !printShardTable(addrs, *user, *interval) {
			os.Exit(1)
		}
		return
	}
	c, err := client.Dial(*connect, client.Options{User: *user})
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
	defer c.Close()
	line, err := c.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stats:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func splitEndpoints(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// shardSample is one endpoint's observability pull for the table.
type shardSample struct {
	epoch   uint64
	queries int64
	err     error
}

func sampleShard(addr, user string) shardSample {
	c, err := client.Dial(addr, client.Options{User: user})
	if err != nil {
		return shardSample{err: err}
	}
	defer c.Close()
	ex, err := c.Observe()
	if err != nil {
		return shardSample{err: err}
	}
	return shardSample{
		epoch:   ex.Stats.MVCC.Epoch,
		queries: ex.Stats.Metrics.Counters["query_total"] + ex.Stats.Metrics.Counters["fed_queries_total"],
	}
}

// printShardTable samples every endpoint twice, interval apart, and
// prints one row per shard: id, endpoint, commit epoch, and the queries
// per second observed across the window. Reports success.
func printShardTable(addrs []string, user string, interval time.Duration) bool {
	first := make([]shardSample, len(addrs))
	for i, addr := range addrs {
		first[i] = sampleShard(addr, user)
	}
	time.Sleep(interval)
	ok := true
	fmt.Printf("%-5s  %-32s  %10s  %8s\n", "shard", "endpoint", "epoch", "q/s")
	for i, addr := range addrs {
		s := sampleShard(addr, user)
		if s.err != nil {
			fmt.Printf("%-5d  %-32s  unreachable: %v\n", i, addr, s.err)
			ok = false
			continue
		}
		qps := 0.0
		if first[i].err == nil && interval > 0 {
			qps = float64(s.queries-first[i].queries) / interval.Seconds()
		}
		fmt.Printf("%-5d  %-32s  %10d  %8.1f\n", i, addr, s.epoch, qps)
	}
	return ok
}

// fedMain is the `gaea fed` verb: a federation router partitioning the
// object grid by class across served shard kernels, itself served over
// the same wire protocol — any client dials it like a kernel.
func fedMain(args []string) {
	fs := flag.NewFlagSet("gaea fed", flag.ExitOnError)
	shards := fs.String("shards", "", "comma-separated shard server addresses, in stable shard order (required)")
	listen := fs.String("listen", "", `listen address: "unix:///path/to.sock" or "host:port" (required)`)
	decisionLog := fs.String("decision-log", "", "durable 2PC decision log file (empty = ephemeral; crash recovery needs it)")
	user := fs.String("user", os.Getenv("USER"), "user announced to the shard servers")
	maxConns := fs.Int("max-conns", 0, "upstream connection limit (0 = unlimited)")
	lease := fs.Duration("lease", 0, "snapshot/cursor lease TTL (0 = 30s)")
	pageSize := fs.Int("page", 0, "stream page size cap (0 = 256)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	classMap := map[string][]int{}
	fs.Func("map", "partition map entry class=shard[,shard...]; repeatable (unmapped classes hash to one shard)", func(v string) error {
		name, list, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want class=shard[,shard...], got %q", v)
		}
		for _, f := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("shard index %q: %v", f, err)
			}
			classMap[name] = append(classMap[name], n)
		}
		return nil
	})
	_ = fs.Parse(args)
	addrs := splitEndpoints(*shards)
	if len(addrs) == 0 || *listen == "" {
		fmt.Fprintln(os.Stderr, "usage: gaea fed -shards ADDR,ADDR,... -listen ADDR [-map class=shard,shard]... [-decision-log FILE]")
		os.Exit(2)
	}
	r, err := fed.Open(addrs, fed.Options{
		Map:         classMap,
		DecisionLog: *decisionLog,
		Client:      client.Options{User: *user},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fed:", err)
		os.Exit(1)
	}
	network, address, err := client.SplitAddr(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	if network == "unix" {
		_ = os.Remove(address)
	}
	l, err := net.Listen(network, address)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	srv := server.New(fed.NewBackend(r), server.Options{
		MaxConns: *maxConns,
		LeaseTTL: *lease,
		PageSize: *pageSize,
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	fmt.Printf("gaea: federating %d shards on %s://%s\n", r.Shards(), network, address)
	failed := false
	select {
	case s := <-sig:
		fmt.Printf("gaea: %v — draining (up to %v)\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			failed = true
		}
		cancel()
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			failed = true
		}
	}
	if network == "unix" {
		_ = os.Remove(address)
	}
	if err := r.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("gaea: federation stopped")
}

// topMain is the `gaea top` verb: one consistent pull of a served
// kernel's stats line, metrics registry, and slow-op log. A comma-
// separated endpoint list prints the merged per-shard table first, then
// one section per shard.
func topMain(args []string) {
	fs := flag.NewFlagSet("gaea top", flag.ExitOnError)
	connect := fs.String("connect", "", `server address(es): "unix:///path/to.sock" or "host:port", comma-separated for a shard table (required)`)
	user := fs.String("user", os.Getenv("USER"), "user announced to the server")
	slow := fs.Int("slow", 5, "slow ops to print (0 = none)")
	interval := fs.Duration("interval", time.Second, "sampling window for the per-shard q/s column (and the -watch refresh period)")
	watch := fs.Bool("watch", false, "live mode: subscribe to every endpoint's stats push and repaint a fleet table each interval")
	_ = fs.Parse(args)
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "usage: gaea top -connect ADDR[,ADDR...] [-slow N] [-watch]")
		os.Exit(2)
	}
	addrs := splitEndpoints(*connect)
	if *watch {
		watchMain(addrs, *user, *interval)
		return
	}
	if len(addrs) > 1 {
		ok := printShardTable(addrs, *user, *interval)
		for i, addr := range addrs {
			fmt.Printf("\n--- shard %d: %s ---\n", i, addr)
			if !topOne(addr, *user, *slow) {
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if !topOne(*connect, *user, *slow) {
		os.Exit(1)
	}
}

func topOne(addr, user string, slow int) bool {
	c, err := client.Dial(addr, client.Options{User: user})
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		return false
	}
	defer c.Close()
	ex, err := c.Observe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "top:", err)
		return false
	}
	fmt.Println(ex.Stats.String())
	fmt.Println()
	ex.Stats.Metrics.WriteText(os.Stdout)
	if slow > 0 && len(ex.SlowOps) > 0 {
		fmt.Printf("\nslow ops (newest first):\n")
		for i, tr := range ex.SlowOps {
			if i >= slow {
				break
			}
			fmt.Print(tr.Format())
		}
	}
	return true
}

// traceMain is the `gaea trace` verb: run one traced query against a
// served kernel and print the resulting cross-process span tree — the
// client's spans and the server's spans joined by the trace ID the v2
// frame carried. A comma-separated endpoint list queries the FIRST
// endpoint and grafts matching spans from all of them, so a router
// address followed by its shard addresses renders the full three-level
// client → router → shard tree.
func traceMain(args []string) {
	fs := flag.NewFlagSet("gaea trace", flag.ExitOnError)
	connect := fs.String("connect", "", `server address(es): "unix:///path/to.sock" or "host:port"; first is queried, all are scanned for spans (required)`)
	user := fs.String("user", os.Getenv("USER"), "user announced to the server")
	class := fs.String("class", "landsat_tm", "class (or concept, with -concept) to query")
	concept := fs.Bool("concept", false, "treat -class as a concept name")
	limit := fs.Int("limit", 0, "stream at most N objects (0 = all)")
	page := fs.Int("page", 4, "stream page size (small by default so the trace shows the paging rhythm)")
	_ = fs.Parse(args)
	addrs := splitEndpoints(*connect)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: gaea trace -connect ADDR[,ADDR...] [-class NAME] [-limit N] [-page N]")
		os.Exit(2)
	}
	tracer := gaea.NewTracer(0)
	c, err := client.Dial(addrs[0], client.Options{User: *user, Tracer: tracer, PageSize: *page})
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
	defer c.Close()
	req := gaea.Request{Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}, Limit: *limit}
	if *concept {
		req.Concept = *class
	} else {
		req.Class = *class
	}
	st, err := c.QueryStream(context.Background(), req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	n := 0
	for _, err := range st.All() {
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		n++
	}
	recent := tracer.Recent()
	if len(recent) == 0 {
		fmt.Fprintln(os.Stderr, "trace: no client trace recorded")
		os.Exit(1)
	}
	merged := recent[0] // newest first: the query just run
	// Graft the remote halves of the trace (same ID, matched via the v2
	// frame's trace field) onto the client's: Format renders every span
	// tree under the one trace header. With multiple endpoints — say a
	// router and its shards — each contributes its own level.
	serverSide := 0
	for i, addr := range addrs {
		ec := c
		if i > 0 {
			ec, err = client.Dial(addr, client.Options{User: *user})
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: endpoint %s: %v\n", addr, err)
				continue
			}
		}
		ex, err := ec.Observe()
		if i > 0 {
			ec.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: endpoint %s: %v\n", addr, err)
			if i == 0 {
				os.Exit(1)
			}
			continue
		}
		for _, tr := range append(append([]gaea.TraceData{}, ex.Traces...), ex.SlowOps...) {
			if tr.ID == merged.ID {
				merged.Spans = append(merged.Spans, tr.Spans...)
				merged.Dropped += tr.Dropped
				serverSide += len(tr.Spans)
				break // Traces and SlowOps can both hold it; graft once
			}
		}
	}
	fmt.Printf("streamed %d objects; %d client + %d server spans across %d endpoint(s)\n",
		n, len(merged.Spans)-serverSide, serverSide, len(addrs))
	fmt.Print(merged.Format())
	if serverSide == 0 {
		fmt.Fprintln(os.Stderr, "trace: server side of the trace not found (it aged out of the ring)")
		os.Exit(1)
	}
}

const helpText = `commands:
  stats                 database summary
  classes               list classes
  class NAME            show one class definition
  processes             list processes (with versions)
  process NAME          show a process definition (and expansion)
  operators             list registered ADT operators
  concepts              list concepts
  net                   show the Petri derivation net
  tasks                 list recorded tasks
  explain OID           derivation history of an object
  query NAME [preview]  query a class or concept (empty predicate)
  quit
`

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// seedDemo loads the Figure 3 / Figure 5 world.
func seedDemo(k *gaea.Kernel) error {
	if k.Catalog.Exists("landsat_tm") {
		return nil // already seeded
	}
	classes := []*catalog.Class{
		{
			Name: "landsat_tm", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{
				{Name: "band", Type: value.TypeString},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
			Doc: "rectified Landsat TM band",
		},
		{
			Name: "landcover", Kind: catalog.KindDerived, DerivedBy: "unsupervised_classification",
			Attrs: []catalog.Attr{
				{Name: "numclass", Type: value.TypeInt},
				{Name: "data", Type: value.TypeImage},
			},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
			Doc: "Land cover",
		},
		{
			Name: "land_cover_changes", Kind: catalog.KindDerived, DerivedBy: "change_map",
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}},
			Frame: sptemp.DefaultFrame, HasSpatial: true, HasTemporal: true,
		},
	}
	for _, c := range classes {
		if err := k.DefineClass(c); err != nil {
			return err
		}
	}
	for _, src := range []string{`
DEFINE PROCESS unsupervised_classification (
  DOC "P20 of Figure 3"
  OUTPUT C20 landcover
  ARGUMENT ( SETOF bands landsat_tm )
  TEMPLATE {
    ASSERTIONS:
      card ( bands ) = 3;
      common ( bands.spatialextent );
      common ( bands.timestamp );
    MAPPINGS:
      C20.data = unsuperclassify ( composite ( bands.data ), 12 );
      C20.numclass = 12;
      C20.spatialextent = ANYOF bands.spatialextent;
      C20.timestamp = ANYOF bands.timestamp;
  }
)`, `
DEFINE PROCESS change_map (
  OUTPUT out land_cover_changes
  ARGUMENT ( a landcover )
  ARGUMENT ( b landcover )
  TEMPLATE {
    ASSERTIONS:
      common ( a.spatialextent );
    MAPPINGS:
      out.data = img_subtract ( b.data, a.data );
      out.spatialextent = a.spatialextent;
      out.timestamp = b.timestamp;
  }
)`, `
DEFINE COMPOUND PROCESS land_change_detection (
  DOC "Figure 5"
  OUTPUT out land_cover_changes
  ARGUMENT ( SETOF tm1 landsat_tm )
  ARGUMENT ( SETOF tm2 landsat_tm )
  STEPS {
    lc1 = unsupervised_classification ( tm1 );
    lc2 = unsupervised_classification ( tm2 );
    out = change_map ( lc1, lc2 );
  }
)`} {
		if _, err := k.DefineProcess(src); err != nil {
			return err
		}
	}
	// Two synthetic scenes (1986 and 1989), batched: one session commit
	// per seeding instead of one WAL commit per band.
	l := raster.NewLandscape(1993)
	s := k.Begin(context.Background())
	for _, year := range []int{1986, 1989} {
		spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 48, Cols: 48, DayOfYear: 170, Year: year, Noise: 0.01}
		day := sptemp.Date(year, 6, 19)
		box := sptemp.NewBox(0, 0, 48*30, 48*30)
		for _, b := range []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR} {
			img, err := l.GenerateBand(spec, b)
			if err != nil {
				s.Rollback()
				return err
			}
			if _, err := s.Create(&object.Object{
				Class: "landsat_tm",
				Attrs: map[string]value.Value{
					"band": value.String_(b.String()),
					"data": value.Image{Img: img},
				},
				Extent: sptemp.AtInstant(sptemp.DefaultFrame, box, day),
			}, fmt.Sprintf("demo scene %d", year)); err != nil {
				s.Rollback()
				return err
			}
		}
	}
	return s.Commit()
}
