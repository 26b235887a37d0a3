package suite_test

// The gaea-vet self-test: run the full invariant suite over the real
// module and demand zero diagnostics. This is what keeps the tree
// honest between CI runs of cmd/gaea-vet — `go test ./...` alone
// re-proves every invariant, and the -race CI job exercises the
// analyzers' own concurrency-free contract under the detector.

import (
	"os"
	"path/filepath"
	"testing"

	"gaea/internal/lint"
	"gaea/internal/lint/suite"
)

func TestModuleIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Clean(filepath.Join(wd, "..", "..", ".."))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	diags, err := lint.Vet(root, []string{"./..."}, suite.All)
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d invariant violation(s); fix them or add a //lint:gaea-allow with a reason", len(diags))
	}
}

func TestSuiteNamesUniqueAndDocumented(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range suite.All {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %+v missing name or doc, or not exactly one of Run and RunModule", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(suite.All) < 7 {
		t.Fatalf("suite has %d analyzers, want >= 7", len(suite.All))
	}
}
