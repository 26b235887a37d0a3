package petri

import (
	"sort"
	"strings"
	"testing"
)

// figure2Net builds a small net shaped like the paper's Figure 2 fragment:
// landsat_tm --(P20, >=3)--> landcover --(P7 x2)--> veg_change, plus a
// rainfall --> desert chain.
func figure2Net(t *testing.T) *Net {
	t.Helper()
	n := NewNet()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.AddTransition(Transition{
		Name: "unsupervised_classification",
		In:   []Arc{{Place: "landsat_tm", Weight: 3}},
		Out:  "landcover",
	}))
	must(n.AddTransition(Transition{
		Name: "change_map",
		In:   []Arc{{Place: "landcover", Weight: 1}, {Place: "landcover", Weight: 1}},
		Out:  "veg_change",
	}))
	must(n.AddTransition(Transition{
		Name: "desert_classifier",
		In:   []Arc{{Place: "rainfall", Weight: 1}},
		Out:  "desert",
	}))
	return n
}

func TestNetConstruction(t *testing.T) {
	n := figure2Net(t)
	places := n.Places()
	want := []string{"desert", "landcover", "landsat_tm", "rainfall", "veg_change"}
	if strings.Join(places, ",") != strings.Join(want, ",") {
		t.Errorf("Places = %v", places)
	}
	if got := len(n.TransitionsInto("landcover")); got != 1 {
		t.Errorf("TransitionsInto(landcover) = %d", got)
	}
	if got := len(n.TransitionsInto("landsat_tm")); got != 0 {
		t.Errorf("base place should have no producers, got %d", got)
	}
	// Validation.
	if err := n.AddTransition(Transition{Name: "", Out: "x", In: []Arc{{Place: "y", Weight: 1}}}); err == nil {
		t.Error("unnamed transition must fail")
	}
	if err := n.AddTransition(Transition{Name: "t", Out: "x"}); err == nil {
		t.Error("no-input transition must fail")
	}
	if err := n.AddTransition(Transition{Name: "t", Out: "x", In: []Arc{{Place: "y", Weight: 0}}}); err == nil {
		t.Error("zero-weight arc must fail")
	}
}

func TestEnabledThresholds(t *testing.T) {
	n := figure2Net(t)
	p20 := n.TransitionsInto("landcover")[0]
	if (Marking{"landsat_tm": 2}).Enabled(p20) {
		t.Error("2 tokens should not enable a weight-3 arc")
	}
	if !(Marking{"landsat_tm": 3}).Enabled(p20) {
		t.Error("3 tokens should enable")
	}
	// More than threshold is fine (modification 2).
	if !(Marking{"landsat_tm": 10}).Enabled(p20) {
		t.Error("10 tokens should enable")
	}
	// Two arcs from the same place accumulate.
	cm := n.TransitionsInto("veg_change")[0]
	if (Marking{"landcover": 1}).Enabled(cm) {
		t.Error("change_map needs two landcover tokens")
	}
	if !(Marking{"landcover": 2}).Enabled(cm) {
		t.Error("two landcover tokens should enable change_map")
	}
}

func TestClosureIsMonotone(t *testing.T) {
	n := figure2Net(t)
	initial := Marking{"landsat_tm": 6}
	final := n.Closure(initial)
	// Tokens are not consumed: landsat_tm count unchanged.
	if final["landsat_tm"] != 6 {
		t.Errorf("input tokens consumed: %v", final)
	}
	if final["landcover"] != 1 {
		t.Errorf("landcover = %d", final["landcover"])
	}
	// change_map needs 2 landcover tokens but closure only adds one per
	// transition, so veg_change stays empty from a single scene pool.
	if final["veg_change"] != 0 {
		t.Errorf("veg_change = %d (one classification cannot feed a 2-input change)", final["veg_change"])
	}
	// Initial marking unchanged (Closure clones).
	if initial["landcover"] != 0 {
		t.Error("Closure mutated its input")
	}
}

func TestCanDeriveChains(t *testing.T) {
	n := figure2Net(t)
	// With one stored landcover and three scenes, change detection becomes
	// derivable: stored landcover + derived landcover = 2 tokens.
	m := Marking{"landsat_tm": 3, "landcover": 1}
	if !n.CanDerive(m, "veg_change") {
		t.Error("veg_change should be derivable")
	}
	// Without the stored landcover it is not.
	if n.CanDerive(Marking{"landsat_tm": 3}, "veg_change") {
		t.Error("veg_change should not be derivable from one scene set")
	}
	// Already-stored target is trivially derivable.
	if !n.CanDerive(Marking{"desert": 1}, "desert") {
		t.Error("stored target should be derivable")
	}
	// Unknown/empty everything.
	if n.CanDerive(Marking{}, "desert") {
		t.Error("empty marking derives nothing")
	}
}

func TestDerivableClasses(t *testing.T) {
	n := figure2Net(t)
	var got []string
	for place, count := range n.Closure(Marking{"landsat_tm": 3, "rainfall": 1}) {
		if count > 0 {
			got = append(got, place)
		}
	}
	sort.Strings(got)
	want := "desert,landcover,landsat_tm,rainfall"
	if strings.Join(got, ",") != want {
		t.Errorf("derivable classes = %v", got)
	}
}

func TestNetString(t *testing.T) {
	n := figure2Net(t)
	s := n.String()
	for _, want := range []string{"landsat_tm(>=3)", "-> landcover", "places:", "transitions:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestDeepChainReachability(t *testing.T) {
	// A linear chain c0 -> c1 -> ... -> c31 exercises fixpoint iteration.
	n := NewNet()
	for i := 0; i < 32; i++ {
		err := n.AddTransition(Transition{
			Name: "p" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			In:   []Arc{{Place: place(i), Weight: 1}},
			Out:  place(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !n.CanDerive(Marking{place(0): 1}, place(32)) {
		t.Error("chain end should be reachable")
	}
	if n.CanDerive(Marking{place(1): 0}, place(32)) {
		t.Error("empty marking should not reach chain end")
	}
}

func place(i int) string {
	return "c" + string(rune('A'+i/10)) + string(rune('0'+i%10))
}

// TransitionsInto returns the transitions producing tokens in a place —
// the candidate derivations of a class.
func (n *Net) TransitionsInto(place string) []Transition {
	var out []Transition
	for _, t := range n.transitions {
		if t.Out == place {
			out = append(out, t)
		}
	}
	return out
}
