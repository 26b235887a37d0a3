//go:build race

package gaea

// raceEnabled reports whether the race detector is compiled in; the
// allocation ceilings skip themselves under it.
const raceEnabled = true
