package util

import "testing"

// Tests are no root: OnlyTests stays reported.
func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 {
		t.Fatal("OnlyTests")
	}
}
