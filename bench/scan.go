package main

import (
	"context"
	"math/rand/v2"

	"gaea"
	"gaea/client"
	"gaea/internal/object"
	"gaea/internal/value"
	"gaea/internal/wire"
)

// scan-stream: every op drains one remote QueryStream over a box of
// scanSpan consecutive tiles with the default page size and window. The
// data set is > 20× the 64-frame buffer pool, so heap reads, raw-record
// shipping and client decode dominate and per-request cost is amortised
// over the scan.

const (
	scanTiles = 131072
	scanSpan  = 4096
	// scanPage is the objects one replay covers: one server page.
	scanPage = 256
)

type scanWorkload struct {
	tiles, span int
	seed        uint64
	k           *gaea.Kernel
	sums        []float64 // sums[i] = Σ mm of tiles [0, i): whole numbers, exact
	user        int64
}

func newScan(scale float64, seed uint64) workload {
	span := max(int(scanSpan*scale), 8)
	return &scanWorkload{tiles: max(int(scanTiles*scale), 2*span), span: span, seed: seed}
}

func (w *scanWorkload) options() gaea.Options { return gaea.Options{NoSync: true, User: "bench"} }

func (w *scanWorkload) load(ctx context.Context, k *gaea.Kernel) error {
	w.k = k
	if err := defineGauge(k); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(w.seed, 0))
	w.sums = make([]float64, 1, w.tiles+1)
	var err error
	_, w.user, err = loadGauges(ctx, k, 0, w.tiles, func(int) float64 {
		mm := float64(rng.IntN(1e6))
		w.sums = append(w.sums, w.sums[len(w.sums)-1]+mm)
		return mm
	})
	return err
}

func (w *scanWorkload) verify(context.Context) (int, error) { return 0, nil }
func (w *scanWorkload) userBytes() int64                    { return w.user }
func (w *scanWorkload) openProbes(string) error             { return nil }
func (w *scanWorkload) closeProbes() error                  { return nil }

func (w *scanWorkload) client(_ int, conn *client.Conn, rng *rand.Rand) opClient {
	return &scanClient{w: w, conn: conn, rng: rng}
}

type scanClient struct {
	w     *scanWorkload
	conn  *client.Conn
	rng   *rand.Rand
	start int // first tile of the op last run
	sum   uint64
}

func (c *scanClient) digest() uint64 { return c.sum }

func (c *scanClient) op(ctx context.Context, _ int, _ opSpan) bool {
	w := c.w
	c.start = c.rng.IntN(w.tiles - w.span + 1)
	c.sum = mix(c.sum, uint64(c.start))
	st, err := c.conn.QueryStream(ctx, gaea.Request{Class: gaugeClass, Pred: tilesPred(c.start, w.span)})
	if err != nil {
		return false
	}
	// Right iff span distinct objects (the stream is in ascending OID
	// order) whose readings sum to the tiles' total.
	n, sum, last := 0, 0.0, object.OID(0)
	for o, err := range st.All() {
		if err != nil || o.OID <= last {
			return false
		}
		mm, ok := o.Attrs["mm"].(value.Float)
		if !ok {
			return false
		}
		n, sum, last = n+1, sum+float64(mm), o.OID
	}
	return n == w.span && sum == w.sums[c.start+w.span]-w.sums[c.start]
}

// probe replays the first page of the scan: the executor's raw page walk
// and beneath it the object store's snapshot iteration, then the record
// fetch, the page codec and the client-side record decode, each per
// object.
func (c *scanClient) probe(ctx context.Context, at opSpan) {
	k := c.w.k
	n := min(scanPage, c.w.span)
	req := gaea.Request{Class: gaugeClass, Pred: tilesPred(c.start, c.w.span), Limit: n}
	epoch := k.Objects.Pin()
	defer k.Objects.Unpin(epoch)

	oids := make([]object.OID, 0, n)
	pg := at.rec.begin(at.op, at.root, "query.page_raw_at")
	_, _, err := k.Queries.PageRawAt(ctx, req, epoch, func(_ string, oid object.OID) (bool, error) {
		oids = append(oids, oid)
		return true, nil
	})
	at.rec.end(pg, max(len(oids), 1))
	if err != nil || len(oids) == 0 {
		return
	}
	it := at.rec.begin(at.op, pg, "object.query_from_at")
	seen := 0
	for _, err := range k.Objects.QueryFromAt(gaugeClass, req.Pred, 0, epoch) {
		if seen++; err != nil || seen == len(oids) {
			break
		}
	}
	at.rec.end(it, max(seen, 1))

	raws := make([]wire.RawObject, 0, len(oids))
	get := at.rec.begin(at.op, at.root, "object.get_raw_at")
	for _, oid := range oids {
		rec, blobs, err := k.Objects.GetRawAt(oid, epoch)
		if err != nil {
			break
		}
		raws = append(raws, wire.RawObject{Rec: rec, Blobs: blobs})
	}
	at.rec.end(get, max(len(raws), 1))

	body, _, err := frameBody(wire.F2Page, func(f *wire.Frame) {
		for i := range raws {
			wire.AppendRawObject(f, &raws[i])
		}
	})
	if err != nil {
		return
	}
	dec := at.rec.begin(at.op, at.root, "wire.decode_raw_object")
	d := wire.NewDec(body)
	for range raws {
		wire.DecodeRawObject(d, false)
	}
	at.rec.end(dec, max(len(raws), 1))

	dw := at.rec.begin(at.op, at.root, "object.decode_wire")
	for i := range raws {
		_, _ = object.DecodeWire(raws[i].Rec, raws[i].Blobs)
	}
	at.rec.end(dw, max(len(raws), 1))
}
