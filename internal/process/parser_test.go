package process

import (
	"strconv"
	"strings"
	"testing"

	"gaea/internal/value"
)

// p20Source is Figure 3's process definition in the concrete syntax.
const p20Source = `
DEFINE PROCESS unsupervised_classification (
  DOC "Figure 3: derive land cover by unsupervised classification"
  OUTPUT C20 landcover
  ARGUMENT ( SETOF bands landsat_tm )
  TEMPLATE {
    ASSERTIONS:
      card ( bands ) = 3;          // need three bands
      common ( bands.spatialextent );
      common ( bands.timestamp );
    MAPPINGS:
      C20.data = unsuperclassify ( composite ( bands.data ), 12 );
      C20.numclass = 12;
      C20.spatialextent = ANYOF bands.spatialextent;
      C20.timestamp = ANYOF bands.timestamp;
  }
)
`

const lcdSource = `
DEFINE COMPOUND PROCESS land_change_detection (
  DOC "Figure 5: land-change detection"
  OUTPUT out land_cover_changes
  ARGUMENT ( SETOF tm1 landsat_tm )
  ARGUMENT ( SETOF tm2 landsat_tm )
  STEPS {
    lc1 = unsupervised_classification ( tm1 );
    lc2 = unsupervised_classification ( tm2 );
    out = change_map ( lc1, lc2 );
  }
)
`

func TestParseP20(t *testing.T) {
	pr, c, err := Parse(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatal("P20 is primitive")
	}
	if pr.Name != "unsupervised_classification" {
		t.Errorf("name = %q", pr.Name)
	}
	if !strings.Contains(pr.Doc, "Figure 3") {
		t.Errorf("doc = %q", pr.Doc)
	}
	if pr.OutAlias != "C20" || pr.OutClass != "landcover" {
		t.Errorf("output = %s %s", pr.OutAlias, pr.OutClass)
	}
	if len(pr.Args) != 1 || !pr.Args[0].IsSet || pr.Args[0].Class != "landsat_tm" {
		t.Errorf("args = %+v", pr.Args)
	}
	// card(bands) = 3 extracted as the Petri threshold.
	if pr.Args[0].MinCard != 3 {
		t.Errorf("MinCard = %d, want 3", pr.Args[0].MinCard)
	}
	if len(pr.Assertions) != 3 {
		t.Errorf("assertions = %d", len(pr.Assertions))
	}
	if len(pr.Mappings) != 4 {
		t.Errorf("mappings = %d", len(pr.Mappings))
	}
	// The data mapping is the nested call of Figure 3.
	dataExpr, ok := pr.Mapping("data")
	if !ok {
		t.Fatal("data mapping missing")
	}
	if got := dataExpr.String(); got != "unsuperclassify(composite(bands.data), 12)" {
		t.Errorf("data mapping = %q", got)
	}
	// ANYOF renders as anyof().
	se, _ := pr.Mapping("spatialextent")
	if se.String() != "anyof(bands.spatialextent)" {
		t.Errorf("spatialextent mapping = %q", se)
	}
}

func TestParseCompound(t *testing.T) {
	pr, c, err := Parse(lcdSource)
	if err != nil {
		t.Fatal(err)
	}
	if pr != nil {
		t.Fatal("LCD is compound")
	}
	if c.Name != "land_change_detection" || c.OutAlias != "out" || c.OutClass != "land_cover_changes" {
		t.Errorf("header = %+v", c)
	}
	if len(c.Args) != 2 || len(c.Steps) != 3 {
		t.Errorf("args/steps = %d/%d", len(c.Args), len(c.Steps))
	}
	if c.Steps[2].Process != "change_map" || len(c.Steps[2].Args) != 2 {
		t.Errorf("step 3 = %+v", c.Steps[2])
	}
	if s, ok := c.Step("lc1"); !ok || s.Process != "unsupervised_classification" {
		t.Errorf("Step lookup = %+v, %v", s, ok)
	}
}

func TestParseLiterals(t *testing.T) {
	src := `
DEFINE PROCESS lits (
  OUTPUT o c
  ARGUMENT ( x klass )
  TEMPLATE {
    MAPPINGS:
      o.a = 42;
      o.b = -7;
      o.c = 2.5;
      o.d = 1e3;
      o.e = "desert";
      o.f = TRUE;
      o.g = FALSE;
  }
)
`
	pr, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]value.Value{
		"a": value.Int(42), "b": value.Int(-7),
		"c": value.Float(2.5), "d": value.Float(1000),
		"e": value.String_("desert"),
		"f": value.Bool(true), "g": value.Bool(false),
	}
	for attr, want := range wants {
		e, ok := pr.Mapping(attr)
		if !ok {
			t.Fatalf("mapping %s missing", attr)
		}
		lit, ok := e.(*Lit)
		if !ok {
			t.Fatalf("mapping %s is %T", attr, e)
		}
		if !value.Equal(lit.Val, want) {
			t.Errorf("mapping %s = %v, want %v", attr, lit.Val, want)
		}
	}
}

func TestParseMinCardVariants(t *testing.T) {
	mk := func(op string, n int) *Process {
		src := strings.Replace(strings.Replace(`
DEFINE PROCESS p (
  OUTPUT o c
  ARGUMENT ( SETOF xs klass )
  TEMPLATE {
    ASSERTIONS:
      card ( xs ) CMPOP CARDN;
    MAPPINGS:
      o.a = 1;
  }
)
`, "CMPOP", op, 1), "CARDN", strconv.Itoa(n), 1)
		pr, _, err := Parse(src)
		if err != nil {
			t.Fatalf("%s %d: %v", op, n, err)
		}
		return pr
	}
	if got := mk("=", 3).Args[0].MinCard; got != 3 {
		t.Errorf("= 3 -> %d", got)
	}
	if got := mk(">=", 2).Args[0].MinCard; got != 2 {
		t.Errorf(">= 2 -> %d", got)
	}
	if got := mk(">", 2).Args[0].MinCard; got != 3 {
		t.Errorf("> 2 -> %d", got)
	}
	if got := mk("<", 9).Args[0].MinCard; got != 1 {
		t.Errorf("< 9 should not raise threshold, got %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not a definition":      `CREATE TABLE x`,
		"missing output":        `DEFINE PROCESS p ( ARGUMENT ( x k ) TEMPLATE { MAPPINGS: o.a = 1; } )`,
		"no arguments":          `DEFINE PROCESS p ( OUTPUT o c TEMPLATE { MAPPINGS: o.a = 1; } )`,
		"bad mapping target":    `DEFINE PROCESS p ( OUTPUT o c ARGUMENT ( x k ) TEMPLATE { MAPPINGS: wrong.a = 1; } )`,
		"unterminated string":   `DEFINE PROCESS p ( DOC "oops`,
		"missing semicolon":     `DEFINE PROCESS p ( OUTPUT o c ARGUMENT ( x k ) TEMPLATE { MAPPINGS: o.a = 1 } )`,
		"empty compound":        `DEFINE COMPOUND PROCESS c ( OUTPUT o k ARGUMENT ( x k ) STEPS { } )`,
		"garbage char":          `DEFINE PROCESS p$ ( )`,
		"missing template":      `DEFINE PROCESS p ( OUTPUT o c ARGUMENT ( x k ) )`,
		"bad call continuation": `DEFINE PROCESS p ( OUTPUT o c ARGUMENT ( x k ) TEMPLATE { MAPPINGS: o.a = f(1 2); } )`,
	}
	for name, src := range cases {
		if _, _, err := Parse(src); err == nil {
			t.Errorf("%s: should fail to parse", name)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	src := "DEFINE PROCESS p ( // comment\n OUTPUT o c\n ARGUMENT ( x k ) // another\n TEMPLATE {\n MAPPINGS:\n o.a = 1; // end\n }\n )"
	pr, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Name != "p" {
		t.Errorf("name = %q", pr.Name)
	}
}

func TestRoundTripSourcePreserved(t *testing.T) {
	pr, _, err := Parse(p20Source)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Source != p20Source {
		t.Error("source text not preserved")
	}
	// Re-parsing the preserved source yields the same structure.
	pr2, _, err := Parse(pr.Source)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.Name != pr.Name || len(pr2.Mappings) != len(pr.Mappings) {
		t.Error("re-parse diverged")
	}
}

// Mapping returns the mapping for an output attribute.
func (p *Process) Mapping(attr string) (Expr, bool) {
	for _, m := range p.Mappings {
		if m.Attr == attr {
			return m.Expr, true
		}
	}
	return nil, false
}

// Step returns the step producing the named result.
func (c *Compound) Step(result string) (Step, bool) {
	for _, s := range c.Steps {
		if s.Result == result {
			return s, true
		}
	}
	return Step{}, false
}
