// Package gaea is the fixture module's root package: its exported
// functions and the exported methods of its exported types are roots.
package gaea

import (
	"gaea/internal/task"
	"gaea/internal/util"
)

// Kernel exposes a manager as a field. The field is not a root: only the
// manager methods a root calls are live.
type Kernel struct {
	Tasks *task.Executor
}

// Open is a root.
func Open() *Kernel {
	return &Kernel{Tasks: task.NewExecutor()}
}

// Run is a root that reaches Executor.Run, a closure's callee, a method
// value, a generic instantiation and an interface conversion.
func (k *Kernel) Run() int {
	n := k.Tasks.Run()
	go func() { util.FromClosure() }()
	f := util.Counter{}.Inc
	f()
	n += util.Sum([]int{1, 2, 3})
	var s util.Stack[string]
	s.Push("x")
	var w util.Sink = util.NewBuffer()
	w.Write(nil)
	return n
}

// unexported is no root, and nothing calls it.
func unexported() {} // want `gaea.unexported is reached by no entry point`
