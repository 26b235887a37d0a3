// Command gaea-vet is Gaea's invariant multichecker: it runs the
// internal/lint analyzers — the mechanical encoding of the kernel's
// cross-layer contracts — over the module and exits non-zero on any
// violation. CI runs it as a blocking step.
//
// Usage:
//
//	gaea-vet [-only a,b] [-list] [packages]
//
// Packages default to ./... relative to the current directory. The
// deadcode analyzer reasons over the whole module whatever the packages,
// and reports only in them. A violation can be suppressed at a call site
// with
//
//	//lint:gaea-allow <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line above; leaving the reason is the
// convention, and reviewers own the judgement call.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gaea/internal/lint"
	"gaea/internal/lint/suite"
)

// analyzers is the full invariant suite, in diagnostic-name order.
var analyzers = suite.All

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "gaea-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gaea-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Vet(dir, patterns, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gaea-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gaea-vet: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
