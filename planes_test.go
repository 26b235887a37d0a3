package gaea

import (
	"context"
	"testing"

	"gaea/internal/catalog"
	"gaea/internal/imgops"
	"gaea/internal/object"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// benchTile returns what the derive-refresh benchmark stores for tile 0
// at seed 1: the red band of its 1986 scene, that scene's 12-class land
// cover, and the tile's 1986→1990 change map.
func benchTile(t testing.TB) (band, landcover, changes *raster.Image) {
	t.Helper()
	var lcs [2]*raster.Image
	for i, year := range []int{1986, 1990} {
		spec := raster.SceneSpec{CellSize: 30, Rows: 32, Cols: 32, DayOfYear: 170, Year: year, Noise: 0.01}
		imgs, err := raster.NewLandscape(1).GenerateScene(spec, []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			band = imgs[0]
		}
		if lcs[i], err = imgops.Unsuperclassify(imgs, 12, imgops.ClassifyOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	changes, err := imgops.Subtract(lcs[1], lcs[0])
	if err != nil {
		t.Fatal(err)
	}
	return band, lcs[0], changes
}

// TestImageBlobSizes reads the stored size of the bench tile's images:
// each is kept in byte planes, so a 32×32 land cover of 12 classes takes
// at most 600 bytes (its pixels alone were 1,024) and a change map at
// most 1,024 (4,096), while a band, whose low planes do not pack, still
// takes less than its pixels.
func TestImageBlobSizes(t *testing.T) {
	band, lc, changes := benchTile(t)
	for _, c := range []struct {
		name string
		img  *raster.Image
		max  int64
	}{
		{"land cover", lc, 600},
		{"change map", changes, 1024},
		{"band", band, int64(len(band.Data()))},
	} {
		k, err := Open(t.TempDir(), Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.DefineClass(&catalog.Class{Name: "img", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "data", Type: value.TypeImage}}, Frame: sptemp.DefaultFrame, HasSpatial: true}); err != nil {
			t.Fatal(err)
		}
		_, err = k.CreateObject(context.Background(), &object.Object{Class: "img",
			Attrs:  map[string]value.Value{"data": value.Image{Img: c.img}},
			Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(0, 0, 960, 960))}, "")
		if err != nil {
			t.Fatal(err)
		}
		ids, err := k.Store.Blobs().IDs()
		if err != nil || len(ids) != 1 {
			t.Fatalf("%s: blobs %v, %v", c.name, ids, err)
		}
		n, err := k.Store.Blobs().Size(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if n > c.max || n != int64(len(raster.Pack(c.img))) {
			t.Errorf("%s: stored in %d bytes, want at most %d, its byte-plane form's %d", c.name, n, c.max, len(raster.Pack(c.img)))
		}
		t.Logf("%s (%s): %d pixel bytes stored in %d", c.name, c.img.PixType(), len(c.img.Data()), n)
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
