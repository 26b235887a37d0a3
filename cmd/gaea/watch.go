package main

// The live halves of the inspection verbs: `gaea top -watch` keeps one
// SubscribeStats push subscription per endpoint and repaints a fleet
// table every period, and `gaea events` prints the structured event
// stream — the backlog the server's ring still holds, then (with
// -follow) every new event as it happens. Both ride the same wire-v2
// push stream the federation's own health monitor uses, so what the
// operator sees is exactly what the router sees.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"gaea"
	"gaea/client"
)

// watchRow is one endpoint's latest state in the -watch table.
type watchRow struct {
	state  string // up / down
	at     time.Time
	rates  map[string]float64
	p99    map[string]int64
	gauges map[string]int64
	events int
}

// watchMain is `gaea top -watch`: one subscription per endpoint, one
// repaint per period. An endpoint whose feed breaks flips to down on
// the next repaint and is redialed every period until it answers again.
func watchMain(addrs []string, user string, period time.Duration) {
	if period <= 0 {
		period = time.Second
	}
	rows := make([]watchRow, len(addrs))
	var mu sync.Mutex
	for i := range rows {
		rows[i].state = "down"
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, addr := range addrs {
		go func(i int, addr string) {
			for ctx.Err() == nil {
				if !watchOnce(ctx, i, addr, user, period, rows, &mu) {
					select {
					case <-ctx.Done():
					case <-time.After(period):
					}
				}
			}
		}(i, addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		mu.Lock()
		snapshot := make([]watchRow, len(rows))
		copy(snapshot, rows)
		mu.Unlock()
		renderWatch(addrs, snapshot)
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// watchOnce runs one subscription until it breaks, reporting false when
// the caller should back off before retrying (dial or subscribe failed).
func watchOnce(ctx context.Context, i int, addr, user string, period time.Duration, rows []watchRow, mu *sync.Mutex) bool {
	down := func() {
		mu.Lock()
		rows[i].state = "down"
		mu.Unlock()
	}
	c, err := client.Dial(addr, client.Options{User: user})
	if err != nil {
		down()
		return false
	}
	defer c.Close()
	feed, err := c.SubscribeStats(ctx, client.SubscribeOptions{Period: period})
	if err != nil {
		down()
		return false
	}
	defer feed.Close()
	for {
		d, err := feed.Next()
		if err != nil {
			down()
			return ctx.Err() == nil
		}
		mu.Lock()
		rows[i] = watchRow{state: "up", at: d.At, rates: d.Rates, p99: d.P99, gauges: d.Gauges, events: len(d.Events)}
		mu.Unlock()
	}
}

// watchRate sums the first present counters under each name — a kernel
// endpoint answers query_total, a router fed_queries_total; the column
// reads right against either.
func watchRate(rates map[string]float64, names ...string) float64 {
	var v float64
	for _, n := range names {
		v += rates[n]
	}
	return v
}

func renderWatch(addrs []string, rows []watchRow) {
	var b strings.Builder
	// Home the cursor and clear below: a flicker-free repaint.
	b.WriteString("\033[H\033[J")
	fmt.Fprintf(&b, "gaea top -watch — %s (ctrl-c to quit)\n\n", time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "%-5s  %-32s  %-8s  %8s  %8s  %8s  %10s  %6s\n",
		"shard", "endpoint", "state", "q/s", "commit/s", "req/s", "p99(req)", "events")
	for i, addr := range addrs {
		r := rows[i]
		if r.state != "up" {
			fmt.Fprintf(&b, "%-5d  %-32s  %-8s\n", i, addr, "down")
			continue
		}
		p99 := "-"
		if v, ok := r.p99["server_request_ns"]; ok && v > 0 {
			p99 = time.Duration(v).Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-5d  %-32s  %-8s  %8.1f  %8.1f  %8.1f  %10s  %6d\n",
			i, addr, r.state,
			watchRate(r.rates, "query_total", "fed_queries_total"),
			watchRate(r.rates, "session_commits_total", "fed_commits_total"),
			r.rates["server_v2_requests_total"],
			p99, r.events)
	}
	// Busiest rates of the first live endpoint round out the picture.
	for _, r := range rows {
		if r.state != "up" || len(r.rates) == 0 {
			continue
		}
		type kv struct {
			name string
			v    float64
		}
		var hot []kv
		for n, v := range r.rates {
			if v > 0 {
				hot = append(hot, kv{n, v})
			}
		}
		sort.Slice(hot, func(i, j int) bool {
			if hot[i].v != hot[j].v {
				return hot[i].v > hot[j].v
			}
			return hot[i].name < hot[j].name
		})
		if len(hot) > 0 {
			fmt.Fprintf(&b, "\nhottest counters (endpoint 0-indexed first up):\n")
			for i, h := range hot {
				if i >= 8 {
					break
				}
				fmt.Fprintf(&b, "  %-40s %10.1f/s\n", h.name, h.v)
			}
		}
		break
	}
	os.Stdout.WriteString(b.String())
}

// eventsMain is the `gaea events` verb: print the structured events a
// served kernel (or federation router) retains, oldest first. -follow
// keeps the subscription open and prints new events as they arrive,
// redialing through restarts and resuming at the last seen sequence so
// nothing the ring still holds is missed. -json prints the raw JSONL
// schema (one Event object per line) instead of the human lines.
func eventsMain(args []string) {
	fs := flag.NewFlagSet("gaea events", flag.ExitOnError)
	connect := fs.String("connect", "", `server address: "unix:///path/to.sock" or "host:port" (required)`)
	user := fs.String("user", os.Getenv("USER"), "user announced to the server")
	follow := fs.Bool("follow", false, "keep the subscription open and print new events as they happen")
	jsonOut := fs.Bool("json", false, "print events as JSONL (one Event object per line) instead of human lines")
	from := fs.Uint64("from", 0, "resume after this event sequence (0 = everything retained)")
	_ = fs.Parse(args)
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "usage: gaea events -connect ADDR [-follow] [-json] [-from SEQ]")
		os.Exit(2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()
	next := *from
	for {
		_, err := streamEvents(ctx, *connect, *user, *follow, *jsonOut, &next)
		if ctx.Err() != nil {
			return
		}
		if !*follow {
			if err != nil {
				fmt.Fprintln(os.Stderr, "events:", err)
				os.Exit(1)
			}
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "events:", err)
		}
		// -follow survives restarts: back off one second, then
		// resubscribe at the resume point — nothing the server's ring
		// still holds is missed.
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
}

// streamEvents runs one subscription, printing events until the feed
// breaks (or, without follow, until the backlog has been printed).
// Returns how many events it printed; *next tracks the resume point.
func streamEvents(ctx context.Context, addr, user string, follow, jsonOut bool, next *uint64) (int, error) {
	c, err := client.Dial(addr, client.Options{User: user})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	// A short period keeps -follow latency low; the backlog rides the
	// first delta either way.
	feed, err := c.SubscribeStats(ctx, client.SubscribeOptions{Period: 250 * time.Millisecond, FromSeq: *next})
	if err != nil {
		return 0, err
	}
	defer feed.Close()
	printed := 0
	for {
		d, err := feed.Next()
		if err != nil {
			return printed, err
		}
		for _, ev := range d.Events {
			printEvent(ev, jsonOut)
			printed++
		}
		*next = feed.NextSeq()
		// One delta carries a bounded slice of the backlog; without
		// -follow keep pulling until a delta arrives empty — the ring is
		// then drained past the resume point.
		if !follow && len(d.Events) == 0 {
			return printed, nil
		}
	}
}

func printEvent(ev gaea.Event, jsonOut bool) {
	if jsonOut {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		os.Stdout.Write(append(b, '\n'))
		return
	}
	var fields string
	if len(ev.Fields) > 0 {
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%s", k, ev.Fields[k])
		}
		fields = " " + strings.Join(parts, " ")
	}
	fmt.Printf("%s %-5s %-16s %s%s\n", ev.Time.Format("15:04:05.000"), ev.Severity, ev.Type, ev.Msg, fields)
}
