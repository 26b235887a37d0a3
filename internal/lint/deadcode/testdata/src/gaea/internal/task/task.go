// Package task has a manager the root package exposes as a field.
package task

// Executor is reachable through Kernel.Tasks.
type Executor struct{ n int }

// NewExecutor is called by gaea.Open.
func NewExecutor() *Executor { return &Executor{} }

// Run is called by Kernel.Run.
func (e *Executor) Run() int { return e.n }

// Lineage is reached only through the exported field Kernel.Tasks.
func (e *Executor) Lineage() []int { return nil } // want `task.Executor.Lineage is reached by no entry point`
