package client

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaea"
	"gaea/internal/sptemp"
)

// BenchmarkRemoteQuery prices the service layer per request: tile-local
// point queries (one object each) over 256 gauges from four
// connections, against the embedded kernel and a served one at 1, 8 and
// 32 requests in flight per connection. The inflight=1 row runs twice to
// price the flight recorder: telemetry=off disables the stats sampler,
// stall watchdog and event ring; telemetry=on runs the defaults with a
// live SubscribeStats subscriber drained every 250 ms, the worst
// realistic case. The budget for telemetry=on is 5% below off.
func BenchmarkRemoteQuery(b *testing.B) {
	const gauges, conns = 256, 4
	on := gaea.Options{NoSync: true, User: "bench"}
	off := gaea.Options{NoSync: true, User: "bench", StatsInterval: -1, StallThreshold: -1, EventRing: -1}
	for _, row := range []struct {
		name      string
		opts      gaea.Options
		inflight  int // per connection; 0 is the embedded kernel
		subscribe bool
	}{
		{"embedded", on, 0, false},
		{"inflight=1/telemetry=off", off, 1, false},
		{"inflight=1/telemetry=on", on, 1, true},
		{"inflight=8", on, 8, false},
		{"inflight=32", on, 32, false},
	} {
		b.Run(row.name, func(b *testing.B) {
			k := openKernelOpts(b, row.opts)
			seedRain(b, Embed(k), gauges, 1)
			backends := make([]Kernel, conns)
			if row.inflight == 0 {
				for i := range backends {
					backends[i] = Embed(k)
				}
			} else {
				_, addr := startServer(b, k, gaea.ServeOptions{})
				for i := range backends {
					backends[i] = dial(b, addr)
				}
				if row.subscribe {
					sctx, cancel := context.WithCancel(ctx)
					feed, err := dial(b, addr).SubscribeStats(sctx, SubscribeOptions{Period: 250 * time.Millisecond})
					if err != nil {
						b.Fatal(err)
					}
					done := make(chan struct{})
					go func() {
						defer close(done)
						for {
							if _, err := feed.Next(); err != nil {
								return
							}
						}
					}()
					defer func() { cancel(); <-done }()
				}
			}

			var next atomic.Int64
			lats := make([][]time.Duration, conns*max(row.inflight, 1))
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := range lats {
				wg.Add(1)
				go func() {
					defer wg.Done()
					kb := backends[w%conns]
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						x := float64(i%gauges) * 20
						pred := sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10))
						t0 := time.Now()
						res, err := kb.Query(ctx, gaea.Request{Class: "rain", Pred: pred})
						if err != nil {
							b.Error(err)
							return
						}
						if len(res.OIDs) != 1 {
							b.Errorf("tile query saw %d objects", len(res.OIDs))
							return
						}
						lats[w] = append(lats[w], time.Since(t0))
					}
				}()
			}
			wg.Wait()
			if b.Failed() {
				return
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			all := slices.Concat(lats...)
			slices.Sort(all)
			b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99-µs")
		})
	}
}

// BenchmarkRemotePipelinedIngest is session ingest multiplexed on one
// connection: eight committers share it, each committing eight creates
// at a time, so their commits overlap in the server. The kernel runs
// NoSync so that the wire, not fsync, is what is measured.
func BenchmarkRemotePipelinedIngest(b *testing.B) {
	const committers, batch = 8, 8
	_, addr := startServer(b, openKernelOpts(b, gaea.Options{NoSync: true, User: "bench"}), gaea.ServeOptions{})
	c := dial(b, addr)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
				s := c.Begin(ctx)
				for j := 0; j < batch; j++ {
					if _, err := s.Create(rainObject(float64(j), float64(i*batch+j)*20), "tape"); err != nil {
						b.Error(err)
						return
					}
				}
				if err := s.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
}
