package lint

import (
	"fmt"
	"go/token"
	"iter"
	"strings"
)

// ExportData resolves build-cache export-data files for the given import
// paths and their transitive dependencies (building them as needed).
// Used by linttest to satisfy fixtures' standard-library imports.
func ExportData(paths []string) (map[string]string, error) {
	metas, err := goList(".", append([]string{"-export", "-deps", "--"}, paths...))
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(metas))
	for _, m := range metas {
		if m.Export != "" {
			out[m.ImportPath] = m.Export
		}
	}
	return out, nil
}

// CheckFixtures type-checks fixture packages from source in the order
// the sequence yields them (dependencies first). Imports resolve against
// earlier fixtures, then against the export map. Every fixture is a
// target, and its module is the first element of its path.
func CheckFixtures(exports map[string]string, pkgs iter.Seq2[string, []string]) ([]*Package, error) {
	fset := token.NewFileSet()
	tc := newTypechecker(fset, func(path string) (string, error) {
		if f, ok := exports[path]; ok {
			return f, nil
		}
		return "", fmt.Errorf("lint: fixture imports %q, which is neither a fixture package nor resolved export data", path)
	})
	var out []*Package
	for path, files := range pkgs {
		pkg, err := tc.check(path, "", "", files)
		if err != nil {
			return nil, err
		}
		pkg.Module, _, _ = strings.Cut(path, "/")
		pkg.Target = true
		out = append(out, pkg)
	}
	return out, nil
}
