// Package filegis is the comparison baseline of §4.1: an IDRISI/GRASS
// style "file-based, raster-oriented" working environment. Analysis runs
// as commands that read rasters from named files and write named output
// files; the only identifier for stored data is the file name; the only
// derivation record is a free-text transcript the scientist maintains by
// hand.
//
// The package intentionally reproduces the four shortcomings the paper
// lists: name-only identification, no shareable derivation metadata,
// hand-managed analysis state, and no abstraction over repeated
// procedures. The comparison experiments (T1, F5) run the same raster math
// as Gaea through this workspace to isolate the cost/benefit of metadata
// management.
package filegis

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gaea/internal/imgops"
	"gaea/internal/raster"
)

// Errors returned by the workspace.
var (
	ErrNoFile     = errors.New("filegis: no such file")
	ErrFileExists = errors.New("filegis: file already exists")
)

// Workspace is a directory of named rasters plus a transcript file.
type Workspace struct {
	dir string
}

// Open creates (or reuses) a workspace directory.
//
//lint:gaea-allow deadcode BenchmarkFig5LandChange and BenchmarkT1TaskMemoisation run the §4.1 baseline
func Open(dir string) (*Workspace, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Workspace{dir: dir}, nil
}

func (w *Workspace) path(name string) string {
	return filepath.Join(w.dir, name+".img")
}

// Import stores a raster under a name, like copying a data tape into the
// working directory. Overwrites silently — the paper's "inadvertent file
// overwrite by other users" hazard is real here.
//
//lint:gaea-allow deadcode BenchmarkFig5LandChange and BenchmarkT1TaskMemoisation run the §4.1 baseline
func (w *Workspace) Import(name string, img *raster.Image) error {
	if err := raster.WriteFile(w.path(name), img); err != nil {
		return err
	}
	return w.log("import %s", name)
}

// Load reads a named raster.
func (w *Workspace) Load(name string) (*raster.Image, error) {
	img, err := raster.ReadFile(w.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNoFile, name)
	}
	return img, err
}

// log appends a line to the transcript, the scientist's only derivation
// record ("awkward transcript files", §4.1 item 3).
func (w *Workspace) log(format string, args ...any) error {
	f, err := os.OpenFile(filepath.Join(w.dir, "transcript.txt"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, format+"\n", args...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The analysis commands. Each reads inputs by name, computes with the
// same imgops math Gaea uses, writes the output file, and appends a
// transcript line. Nothing else is recorded.

// Subtract computes out = a - b.
//
//lint:gaea-allow deadcode BenchmarkFig5LandChange runs the §4.1 baseline
func (w *Workspace) Subtract(out, a, b string) error {
	return w.binary(out, a, b, "subtract", imgops.Subtract)
}

func (w *Workspace) binary(out, a, b, cmd string, f func(x, y *raster.Image) (*raster.Image, error)) error {
	x, err := w.Load(a)
	if err != nil {
		return err
	}
	y, err := w.Load(b)
	if err != nil {
		return err
	}
	img, err := f(x, y)
	if err != nil {
		return err
	}
	if err := raster.WriteFile(w.path(out), img); err != nil {
		return err
	}
	return w.log("%s %s %s -> %s", cmd, a, b, out)
}

// Classify computes out = unsuperclassify(bands, k).
//
//lint:gaea-allow deadcode BenchmarkFig5LandChange and BenchmarkT1TaskMemoisation run the §4.1 baseline
func (w *Workspace) Classify(out string, bandNames []string, k int) error {
	bands := make([]*raster.Image, len(bandNames))
	for i, name := range bandNames {
		img, err := w.Load(name)
		if err != nil {
			return err
		}
		bands[i] = img
	}
	img, err := imgops.Unsuperclassify(bands, k, imgops.ClassifyOptions{Seed: 1})
	if err != nil {
		return err
	}
	if err := raster.WriteFile(w.path(out), img); err != nil {
		return err
	}
	return w.log("classify %s k=%d -> %s", strings.Join(bandNames, ","), k, out)
}
