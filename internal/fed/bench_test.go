package fed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gaea/client"
)

// BenchmarkFedIngestScan measures what a partitioned grid is for, on
// durable shards (the WAL fsyncs every commit): shard WALs committing
// side by side, and the vector-cursor merge draining every shard's
// stream at once. "direct" runs the same workload against one served
// kernel over a plain connection; "shards=N" goes through the router
// with the class striped over N shards, where round-robin placement
// makes each single-create commit a single-shard fast path (no 2PC).
// Shards on a box with fewer cores than shards share the CPU, so the
// rows there measure fsync overlap, not CPU scale-out.
func BenchmarkFedIngestScan(b *testing.B) {
	const workers = 16
	for _, shards := range []int{0, 1, 2} {
		name := "direct"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			grid := make([]*testShard, max(shards, 1))
			owners := make([]int, len(grid))
			for i := range grid {
				grid[i] = startShard(&testShard{t: b, dir: b.TempDir(), sync: true})
				owners[i] = i
			}
			var k client.Kernel
			if shards == 0 {
				c, err := client.Dial(grid[0].addr, client.Options{User: "bench"})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { c.Close() })
				k = c
			} else {
				k = openFed(b, Options{Map: map[string][]int{"rain": owners}}, grid...)
			}
			// A seeded class gives the scan half a real drain even when
			// the ingest half is filtered out.
			created := len(seedFed(b, k, 4096, 0))

			b.Run("ingest", func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
							s := k.Begin(tctx)
							if _, err := s.Create(rainObj(float64(i), float64(i%4096)*20), ""); err != nil {
								b.Error(err)
								return
							}
							if err := s.Commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				created += b.N
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
			})
			b.Run("scan", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st, err := k.QueryStream(tctx, rainReq())
					if err != nil {
						b.Fatal(err)
					}
					if n := len(drainN(b, st, 0)); n != created {
						b.Fatalf("scan drained %d objects, want %d", n, created)
					}
				}
				b.ReportMetric(float64(b.N*created)/b.Elapsed().Seconds(), "objects/s")
			})
		})
	}
}
