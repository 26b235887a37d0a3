package main

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync/atomic"

	"gaea"
	"gaea/client"
	"gaea/internal/object"
	"gaea/internal/storage"
	"gaea/internal/wire"
)

// ingest-verify: every op is one remote session of ingestBatch creates
// and a durable commit, then one point query per tile just written. The
// write half is WAL append + fsync under the object store's commit lock;
// the read half uses the same wire/server/object path as remote-point
// beside the other clients' committers.

const (
	// ingestPreload gauges are stored at set-up so that set-up takes over
	// a second and commits land in heaps that already hold data.
	ingestPreload = 131072
	ingestBatch   = 8
	// ingestCheckpointBytes makes several auto-checkpoints complete in a
	// run; the 64 MiB default would make it zero or one by coin flip.
	ingestCheckpointBytes = 4 << 20
)

type ingestWorkload struct {
	preload int
	seed    uint64
	k       *gaea.Kernel
	user    atomic.Int64

	// Scratch stores the replays write to (traced run only): a kernel
	// opened like the measured one, and bare storage engines with and
	// without fsync. scratchTile hands the replays tiles of their own.
	scratch     *gaea.Kernel
	syncStore   *storage.Store
	nosyncStore *storage.Store
	scratchTile atomic.Int64
}

func newIngest(scale float64, seed uint64) workload {
	return &ingestWorkload{preload: max(int(ingestPreload*scale), 16), seed: seed}
}

func (w *ingestWorkload) options() gaea.Options {
	return gaea.Options{User: "bench", CheckpointEveryBytes: ingestCheckpointBytes}
}

func (w *ingestWorkload) load(ctx context.Context, k *gaea.Kernel) error {
	w.k = k
	if err := defineGauge(k); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(w.seed, 0))
	_, user, err := loadGauges(ctx, k, 0, w.preload, func(int) float64 { return float64(rng.IntN(1e6)) })
	w.user.Store(user)
	return err
}

func (w *ingestWorkload) verify(context.Context) (int, error) { return 0, nil }
func (w *ingestWorkload) userBytes() int64                    { return w.user.Load() }

func (w *ingestWorkload) openProbes(dir string) (err error) {
	opts := w.options()
	opts.CheckpointEveryBytes = -1 // the replays read WAL growth per commit
	if w.scratch, err = gaea.Open(filepath.Join(dir, "kernel"), opts); err != nil {
		return err
	}
	if err = defineGauge(w.scratch); err != nil {
		return err
	}
	if w.syncStore, err = storage.Open(filepath.Join(dir, "sync"), storage.Options{}); err != nil {
		return err
	}
	w.nosyncStore, err = storage.Open(filepath.Join(dir, "nosync"), storage.Options{NoSync: true})
	return err
}

func (w *ingestWorkload) closeProbes() error {
	var errs []error
	if w.scratch != nil {
		errs = append(errs, w.scratch.Close())
	}
	for _, st := range []*storage.Store{w.syncStore, w.nosyncStore} {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(errs...)
}

func (w *ingestWorkload) client(id int, conn *client.Conn, rng *rand.Rand) opClient {
	return &ingestClient{w: w, id: id, conn: conn, rng: rng}
}

type ingestClient struct {
	w    *ingestWorkload
	id   int
	conn *client.Conn
	rng  *rand.Rand
	// of the op last run
	base      int // first tile written
	mm        [ingestBatch]float64
	lastQuery int64 // span of the last point query
	sum       uint64
}

func (c *ingestClient) digest() uint64 { return c.sum }

// clientTiles is the tile range reserved for each logical client's
// creates, beyond the preloaded tiles: no two ops ever share a tile.
const clientTiles = 1 << 24

func (c *ingestClient) op(ctx context.Context, i int, at opSpan) bool {
	w := c.w
	c.base = w.preload + c.id*clientTiles + i*ingestBatch
	var s client.Session
	at.timed(at.root, "client.begin", 1, func() { s = c.conn.Begin(ctx) })
	var prov [ingestBatch]object.OID
	var user int64
	for t := range prov {
		c.mm[t] = float64(c.rng.IntN(1e6))
		c.sum = mix(mix(c.sum, uint64(c.base+t)), uint64(c.mm[t]))
		o := gaugeObject(c.base+t, c.mm[t])
		b, err := userBytes(o)
		if err != nil {
			return false
		}
		user += b
		if prov[t], err = s.Create(o, "ingest"); err != nil {
			return false
		}
	}
	var err error
	at.timed(at.root, "client.commit", 1, func() { err = s.Commit() })
	if err != nil {
		return false
	}
	w.user.Add(user)
	// Read-your-writes: every acknowledged create is the one object of
	// its tile, under its committed OID.
	for t := range prov {
		oid, ok := s.Committed(prov[t])
		if !ok {
			return false
		}
		var res *gaea.Result
		c.lastQuery = at.timed(at.root, "client.query", 1, func() {
			res, err = c.conn.Query(ctx, gaea.Request{Class: gaugeClass, Pred: tilesPred(c.base+t, 1)})
		})
		if err != nil || !slices.Equal(res.OIDs, []object.OID{oid}) {
			return false
		}
	}
	return true
}

// probe replays the op's last point query beneath its span, and the
// op's batch on the scratch stores from the top down: an embedded
// session commit, the object store's batch apply beneath it, and the
// storage engine's group commit beneath that, with and without fsync.
func (c *ingestClient) probe(ctx context.Context, at opSpan) {
	w := c.w
	qBytes := probeQuery(ctx, w.k, at, c.lastQuery, gaea.Request{Class: gaugeClass, Pred: tilesPred(c.base+ingestBatch-1, 1)})

	tile := int(w.scratchTile.Add(2*ingestBatch)) - 2*ingestBatch
	batch := func(from int) (objs []*object.Object, user int64) {
		for t := 0; t < ingestBatch; t++ {
			o := gaugeObject(from+t, c.mm[t])
			b, _ := userBytes(o) // a float always encodes
			objs, user = append(objs, o), user+b
		}
		return objs, user
	}

	// The whole op on the wire: begin, the commit batch, and its queries.
	objs, user := batch(tile)
	breq := &wire.BatchReq{ReadEpoch: 1}
	for t, o := range objs {
		wo, err := wire.FromObject(o)
		if err != nil {
			return
		}
		breq.Creates = append(breq.Creates, wire.Create{Prov: wire.ProvisionalBit | uint64(t+1), Obj: wo, Note: "ingest"})
	}
	_, beginReq, _ := frameBody(wire.F2Req, func(f *wire.Frame) { wire.EncodeRequest(f, &wire.Request{Op: wire.OpBegin}) })
	_, beginResp, _ := frameBody(wire.F2Resp, func(f *wire.Frame) { wire.EncodeResponse(f, &wire.Response{Epoch: 1 << 20}) })
	_, commitReq, _ := frameBody(wire.F2Req, func(f *wire.Frame) { wire.EncodeRequest(f, &wire.Request{Op: wire.OpCommit, Batch: breq}) })
	_, commitResp, _ := frameBody(wire.F2Resp, func(f *wire.Frame) {
		wire.EncodeResponse(f, &wire.Response{OIDs: make([]uint64, ingestBatch)})
	})
	at.rec.value("wire.bytes", float64(beginReq+beginResp+commitReq+commitResp+ingestBatch*qBytes))

	s := w.scratch.Begin(ctx)
	for _, o := range objs {
		if _, err := s.Create(o, "ingest"); err != nil {
			_ = s.Rollback() // cannot fail: nothing was prepared
			return
		}
	}
	wal0 := w.scratch.Store.WALBytes()
	var err error
	kc := at.timed(at.root, "kernel.commit", 1, func() { err = s.Commit() })
	if err != nil {
		return
	}
	at.rec.value("storage.wal_bytes_per_user_byte", float64(w.scratch.Store.WALBytes()-wal0)/float64(user))

	objs, _ = batch(tile + ingestBatch)
	for _, o := range objs {
		if _, err := w.scratch.Objects.Reserve(o); err != nil {
			return
		}
	}
	ab := at.timed(kc, "object.apply_batch", 1, func() {
		_, err = w.scratch.Objects.ApplyBatch(object.BatchOps{Inserts: objs})
	})
	if err != nil {
		return
	}

	// The same group without fsync nests beneath the one with it, so the
	// durable commit's self time is the fsync.
	parent := ab
	for _, st := range []struct {
		store *storage.Store
		name  string
	}{{w.syncStore, "storage.batch_commit_sync"}, {w.nosyncStore, "storage.batch_commit_nosync"}} {
		b := st.store.NewBatch()
		for _, o := range objs {
			rec, err := object.EncodeWire(o)
			if err != nil {
				return
			}
			b.Insert("obj_"+gaugeClass, rec)
		}
		parent = at.timed(parent, st.name, 1, func() { _, _ = b.Commit() })
	}
}
