// Package util holds one case per reachability rule.
package util

// OnlyTests is called by util_test.go alone.
func OnlyTests() int { return 1 } // want `util.OnlyTests is reached by no entry point`

// FromClosure is called inside a closure of a root.
func FromClosure() {}

// FromVar is referenced by a package-level variable's initialiser.
func FromVar() {}

// Counter's Inc is taken as a method value.
type Counter struct{}

// Inc is live through the method value.
func (Counter) Inc() {}

// Dec is never referenced.
func (Counter) Dec() {} // want `util.Counter.Dec is reached by no entry point`

// Sum is generic; Kernel.Run instantiates it.
func Sum[T int | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// Stack is a generic type; Kernel.Run calls Push on a Stack[string].
type Stack[T any] struct{ items []T }

// Push is live through the instantiation.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Pop is not.
func (s *Stack[T]) Pop() T { // want `util.Stack.Pop is reached by no entry point`
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// Sink is an interface the module declares.
type Sink interface {
	Write(p []byte) (int, error)
}

// Buffer satisfies Sink.
type Buffer struct{ n int }

// NewBuffer is called by Kernel.Run.
func NewBuffer() *Buffer { return &Buffer{} }

// Write is live because Buffer satisfies Sink, though nothing calls it
// on a *Buffer.
func (b *Buffer) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }

// Reset is in no interface and nothing calls it.
func (b *Buffer) Reset() { b.n = 0 } // want `util.Buffer.Reset is reached by no entry point`

// Allowed is kept deliberately, so its callee is live too.
//
//lint:gaea-allow deadcode fixture: an allowed function is a root
func Allowed() { allowedCallee() }

func allowedCallee() {}

// Weekday is mentioned by a lookup table nothing reads.
type Weekday int

var weekdayNames = map[Weekday]string{0: "sun", 1: "mon"}

// String reads the table, but no reached body reads the table, so its
// initialiser is never walked and no Weekday is reached.
func (d Weekday) String() string { return weekdayNames[d] } // want `util.Weekday.String is reached by no entry point`

// Mode is reached through a blank variable, whose initialiser is a root.
type Mode int

var _ = []Mode{0}

// String is live: Mode is reached, and fmt finds String by name.
func (m Mode) String() string { return "mode" }

// registered is read by nothing, but its initialiser calls a function,
// so it runs at init and stays a root.
var registered = register()

func register() int { return 1 }
