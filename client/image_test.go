package client

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"gaea"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// specialImages returns one image of each pixel type, whose planes hold
// from 1 to 256 distinct bytes, a 1×1 image, and float images of −0,
// NaN payloads, infinities and subnormals.
func specialImages(t *testing.T) []*raster.Image {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	var imgs []*raster.Image
	add := func(rows, cols int, pt raster.PixType, data []byte) {
		im, err := raster.FromData(rows, cols, pt, data)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, im)
	}
	for i, pt := range []raster.PixType{raster.PixChar, raster.PixInt2, raster.PixInt4, raster.PixFloat4, raster.PixFloat8} {
		data := make([]byte, 32*32*pt.Size())
		for j := range data {
			data[j] = byte(r.Intn([]int{1, 2, 12, 129, 256}[(i+j)%5]))
		}
		add(32, 32, pt, data)
	}
	add(1, 1, raster.PixInt2, []byte{0x34, 0x12})
	var f4, f8 []byte
	for _, u := range []uint32{0x80000000, 0x7fc00001, 0xffc12345, 0x7f800000, 0x00000001, 0x807fffff} {
		f4 = binary.LittleEndian.AppendUint32(f4, u)
	}
	for _, u := range []uint64{1 << 63, 0x7ff8000000000001, 0xfff8dead0000beef, 0xfff0000000000000, 1, math.Float64bits(-1.5)} {
		f8 = binary.LittleEndian.AppendUint64(f8, u)
	}
	add(2, 3, raster.PixFloat4, f4)
	add(3, 2, raster.PixFloat8, f8)
	return imgs
}

// TestImagesReadBackEveryPath: images stored in byte planes read back
// bit for bit through every path that unpacks them: an embedded read,
// a client Get (the stored bytes shipped raw and unpacked client-side),
// after a checkpoint that compacts the blob log, and after a reopen.
func TestImagesReadBackEveryPath(t *testing.T) {
	dir := t.TempDir()
	k, err := gaea.Open(dir, gaea.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { k.Close() }()
	if err := k.DefineClass(&catalog.Class{Name: "img", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}}, Frame: sptemp.DefaultFrame, HasSpatial: true}); err != nil {
		t.Fatal(err)
	}
	imgObject := func(im *raster.Image) *object.Object {
		return &object.Object{Class: "img", Attrs: map[string]value.Value{"data": value.Image{Img: im}},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 10, 10))}
	}
	imgs := specialImages(t)
	var oids []object.OID
	for _, im := range imgs {
		oid, err := k.CreateObject(ctx, imgObject(im), "")
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	// Replaced versions leave dead blob bytes for the checkpoint to compact.
	churn, err := k.CreateObject(ctx, imgObject(imgs[0]), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range imgs[1:3] {
		o := imgObject(im)
		o.OID = churn
		if err := k.UpdateObject(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	check := func(path string, get func(object.OID) (*object.Object, error)) {
		t.Helper()
		for i, oid := range oids {
			o, err := get(oid)
			if err != nil {
				t.Fatalf("%s: image %d: %v", path, i, err)
			}
			got, want := o.Attrs["data"].(value.Image).Img, imgs[i]
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.PixType() != want.PixType() || !bytes.Equal(got.Data(), want.Data()) {
				t.Errorf("%s: image %d (%v) reads back as %v, bytes %x", path, i, want, got, got.Data()[:min(16, len(got.Data()))])
			}
		}
	}
	check("embedded", k.Objects.Get)

	_, addr := startServer(t, k, gaea.ServeOptions{})
	snap, err := dial(t, addr).Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	check("client Get", snap.Get)
	snap.Release()

	segs := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "blobs", "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := segs()
	if _, err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := segs(); slices.Equal(before, after) {
		t.Fatalf("the checkpoint left the blob segments %v as they were", after)
	}
	check("after a compacting checkpoint", k.Objects.Get)

	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if k, err = gaea.Open(dir, gaea.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	check("after a reopen", k.Objects.Get)
}
