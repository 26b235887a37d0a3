package filegis

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaea/internal/raster"
)

func scene(t *testing.T, band raster.Band) *raster.Image {
	t.Helper()
	l := raster.NewLandscape(5)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 8, Cols: 8, DayOfYear: 150, Year: 1986, Noise: 0.01}
	img, err := l.GenerateBand(spec, band)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// Transcript returns the raw transcript text.
func (w *Workspace) Transcript() (string, error) {
	data, err := os.ReadFile(filepath.Join(w.dir, "transcript.txt"))
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	return string(data), err
}

// DerivationOf is the baseline's answer to "how was this file produced?":
// grep the transcript for lines mentioning the name. The paper's point is
// that this is all the environment can offer — the result is text, not
// structure, and only as good as the scientist's discipline.
func (w *Workspace) DerivationOf(name string) ([]string, error) {
	text, err := w.Transcript()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return out, nil
}

func TestImportLoadList(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	red := scene(t, raster.BandRed)
	if err := w.Import("africa_red_8601", red); err != nil {
		t.Fatal(err)
	}
	got, err := w.Load("africa_red_8601")
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualPixels(red) {
		t.Error("load lost pixels")
	}
	if _, err := w.Load("ghost"); !errors.Is(err, ErrNoFile) {
		t.Errorf("missing load err = %v", err)
	}
}

func TestSilentOverwriteHazard(t *testing.T) {
	// The paper's §4.1 hazard: a second import under the same name
	// silently clobbers the first.
	w, _ := Open(t.TempDir())
	w.Import("map", scene(t, raster.BandRed))
	nir := scene(t, raster.BandNIR)
	if err := w.Import("map", nir); err != nil {
		t.Fatal(err)
	}
	got, _ := w.Load("map")
	if !got.EqualPixels(nir) {
		t.Error("expected the overwrite to win (that is the hazard)")
	}
}

func TestAnalysisCommandsAndTranscript(t *testing.T) {
	w, _ := Open(t.TempDir())
	w.Import("red88", scene(t, raster.BandRed))
	w.Import("nir88", scene(t, raster.BandNIR))
	w.Import("swir88", scene(t, raster.BandSWIR))

	if err := w.Subtract("diff", "nir88", "nir88"); err != nil {
		t.Fatal(err)
	}
	if err := w.Classify("lc88", []string{"red88", "nir88", "swir88"}, 6); err != nil {
		t.Fatal(err)
	}
	// Outputs exist and are loadable.
	for _, name := range []string{"diff", "lc88"} {
		if _, err := w.Load(name); err != nil {
			t.Errorf("output %s: %v", name, err)
		}
	}
	// diff of x with itself is zero.
	diff, _ := w.Load("diff")
	if st := diff.Stats(); st.Min != 0 || st.Max != 0 {
		t.Errorf("self-subtract should be zero: %+v", st)
	}
	// Transcript recorded every command.
	text, err := w.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"import red88", "subtract nir88 nir88 -> diff", "classify red88,nir88,swir88 k=6 -> lc88"} {
		if !strings.Contains(text, want) {
			t.Errorf("transcript missing %q:\n%s", want, text)
		}
	}
}

func TestCommandsFailOnMissingInputs(t *testing.T) {
	w, _ := Open(t.TempDir())
	if err := w.Subtract("out", "nope", "nada"); !errors.Is(err, ErrNoFile) {
		t.Errorf("subtract err = %v", err)
	}
	if err := w.Classify("out", []string{"nope"}, 3); !errors.Is(err, ErrNoFile) {
		t.Errorf("classify err = %v", err)
	}
}

func TestDerivationOfIsOnlyGrep(t *testing.T) {
	// The §1 scenario in the baseline: two change maps with
	// indistinguishable metadata unless the transcript happens to say.
	w, _ := Open(t.TempDir())
	w.Import("red88", scene(t, raster.BandRed))
	w.Import("nir88", scene(t, raster.BandNIR))
	w.Subtract("change_a", "nir88", "red88")
	w.Classify("change_b", []string{"red88", "nir88"}, 2)

	linesA, err := w.DerivationOf("change_a")
	if err != nil {
		t.Fatal(err)
	}
	if len(linesA) != 1 || !strings.Contains(linesA[0], "subtract") {
		t.Errorf("DerivationOf(change_a) = %v", linesA)
	}
	// But the structure is free text: renaming the file orphans the
	// lineage entirely.
	if lines, _ := w.DerivationOf("renamed_change"); len(lines) != 0 {
		t.Errorf("renamed file should have no greppable lineage: %v", lines)
	}
	// Empty workspace has an empty transcript.
	w2, _ := Open(t.TempDir())
	if text, err := w2.Transcript(); err != nil || text != "" {
		t.Errorf("fresh transcript = %q, %v", text, err)
	}
}
