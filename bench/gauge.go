package main

import (
	"context"
	"fmt"

	"gaea"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// The gauge data set: one rainfall reading per 10×10 tile, tiles laid out
// on a line 20 apart so that every tile's box meets exactly one object.

const (
	gaugeClass = "gauge"
	tileStep   = 20.0
	tileSide   = 10.0
	// loadBatch is the creates per set-up session: one WAL group each.
	loadBatch = 1024
)

func tileBox(tile int) sptemp.Box {
	x := float64(tile) * tileStep
	return sptemp.NewBox(x, 0, x+tileSide, tileSide)
}

// tilesPred is the predicate meeting exactly tiles [from, from+n).
func tilesPred(from, n int) sptemp.Extent {
	x := float64(from) * tileStep
	box := sptemp.NewBox(x, 0, x+float64(n-1)*tileStep+tileSide, tileSide)
	return sptemp.TimelessExtent(sptemp.DefaultFrame, box)
}

func gaugeObject(tile int, mm float64) *object.Object {
	return &object.Object{
		Class:  gaugeClass,
		Attrs:  map[string]value.Value{"mm": value.Float(mm)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, tileBox(tile)),
	}
}

func defineGauge(k *gaea.Kernel) error {
	return k.DefineClass(&catalog.Class{
		Name: gaugeClass, Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	})
}

// userBytes is the payload a user hands the system with one object: the
// encoded attribute values plus the extent's numbers (four box
// coordinates, and two timestamps when the object is timed). Names,
// class, frame and identifiers are the system's own bookkeeping.
func userBytes(o *object.Object) (int64, error) {
	n := int64(4 * 8)
	if o.Extent.HasTime {
		n += 2 * 8
	}
	for name, v := range o.Attrs {
		enc, err := value.Encode(v)
		if err != nil {
			return 0, fmt.Errorf("attribute %q: %w", name, err)
		}
		n += int64(len(enc))
	}
	return n, nil
}

// loadGauges stores one gauge per tile in [from, from+n) through embedded
// sessions and returns their OIDs by tile offset and the user bytes
// written.
func loadGauges(ctx context.Context, k *gaea.Kernel, from, n int, mm func(tile int) float64) ([]object.OID, int64, error) {
	oids := make([]object.OID, 0, n)
	var user int64
	for start := 0; start < n; start += loadBatch {
		s := k.Begin(ctx)
		for i := start; i < min(start+loadBatch, n); i++ {
			o := gaugeObject(from+i, mm(from+i))
			oid, err := s.Create(o, "")
			if err != nil {
				_ = s.Rollback() // cannot fail: nothing was prepared
				return nil, 0, fmt.Errorf("create gauge %d: %w", from+i, err)
			}
			b, err := userBytes(o)
			if err != nil {
				_ = s.Rollback()
				return nil, 0, err
			}
			user += b
			oids = append(oids, oid)
		}
		if err := s.Commit(); err != nil {
			return nil, 0, fmt.Errorf("commit gauges from %d: %w", from+start, err)
		}
	}
	return oids, user, nil
}
