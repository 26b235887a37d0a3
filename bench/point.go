package main

import (
	"context"
	"math/rand/v2"
	"slices"

	"gaea"
	"gaea/client"
	"gaea/internal/object"
)

// remote-point: every op is one remote Query for the single gauge of a
// tile drawn uniformly from a hot range. The kernel's part is an index
// probe over the whole data set and one record read that the buffer pool
// serves, so client, wire and server carry most of the latency.

const (
	pointTiles = 131072
	// pointHot consecutive tiles, from a start the seed draws, take every
	// query: their ~50 heap pages fit the 64-frame pool, which makes this
	// the cache-resident workload beside scan-stream's 25× pool.
	pointHot = 4096
)

type pointWorkload struct {
	tiles int
	hot   int // tiles queried
	first int // the first of them
	seed  uint64
	k     *gaea.Kernel
	oids  []object.OID // by tile
	user  int64
}

func newPoint(scale float64, seed uint64) workload {
	w := &pointWorkload{tiles: max(int(pointTiles*scale), 16), seed: seed}
	w.hot = min(pointHot, w.tiles)
	return w
}

func (w *pointWorkload) options() gaea.Options { return gaea.Options{NoSync: true, User: "bench"} }

func (w *pointWorkload) load(ctx context.Context, k *gaea.Kernel) error {
	w.k = k
	if err := defineGauge(k); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(w.seed, 0))
	w.first = rng.IntN(w.tiles - w.hot + 1)
	var err error
	w.oids, w.user, err = loadGauges(ctx, k, 0, w.tiles, func(int) float64 { return float64(rng.IntN(1e6)) })
	return err
}

func (w *pointWorkload) verify(context.Context) (int, error) { return 0, nil }
func (w *pointWorkload) userBytes() int64                    { return w.user }
func (w *pointWorkload) openProbes(string) error             { return nil }
func (w *pointWorkload) closeProbes() error                  { return nil }

func (w *pointWorkload) client(_ int, conn *client.Conn, rng *rand.Rand) opClient {
	return &pointClient{w: w, conn: conn, rng: rng}
}

type pointClient struct {
	w    *pointWorkload
	conn *client.Conn
	rng  *rand.Rand
	tile int // of the op last run
	sum  uint64
}

func (c *pointClient) digest() uint64 { return c.sum }

func (c *pointClient) request() gaea.Request {
	return gaea.Request{Class: gaugeClass, Pred: tilesPred(c.tile, 1)}
}

func (c *pointClient) op(ctx context.Context, _ int, _ opSpan) bool {
	c.tile = c.w.first + c.rng.IntN(c.w.hot)
	c.sum = mix(c.sum, uint64(c.tile))
	res, err := c.conn.Query(ctx, c.request())
	return err == nil && slices.Equal(res.OIDs, c.w.oids[c.tile:c.tile+1])
}

func (c *pointClient) probe(ctx context.Context, at opSpan) {
	at.rec.value("wire.bytes", float64(probeQuery(ctx, c.w.k, at, at.root, c.request())))
}
