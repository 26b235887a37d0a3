package process

import (
	"errors"
	"testing"
)

// FuzzParse runs arbitrary text through the process language: the lexer
// and parser, then — whenever a primitive parses — the checker, against
// the tests' catalog and the standard operator registry. Nothing may
// panic or hang; a definition that parses is exactly one of a process
// and a compound, and a rejected one is rejected as ErrCheck. The seeds
// (testdata/fuzz/FuzzParse) are every definition of this package's
// tests and of the shell's demo.
func FuzzParse(f *testing.F) {
	e := newEnv(f)
	f.Fuzz(func(t *testing.T, src string) {
		pr, c, err := Parse(src)
		if err != nil {
			if pr != nil || c != nil {
				t.Fatalf("Parse failed (%v) and returned a definition", err)
			}
			return
		}
		if (pr == nil) == (c == nil) {
			t.Fatalf("Parse returned process %v and compound %v", pr, c)
		}
		if pr != nil {
			if err := Check(pr, e.cat, e.reg); err != nil && !errors.Is(err, ErrCheck) {
				t.Fatalf("Check: %v, want ErrCheck", err)
			}
		}
	})
}
