// Package sflight implements single-flight execution: concurrent calls
// with the same key collapse into one execution of the function, and the
// waiters share the leader's result. The derivation engine uses it so N
// identical concurrent derivations execute exactly once (task memo,
// interpolation), per the paper's premise that derived data is shared.
package sflight

import (
	"context"
	"fmt"
	"sync"
)

// Group deduplicates concurrent calls by key. The zero value is ready to
// use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done    chan struct{} // closed when val/err are published
	val     V
	err     error
	joiners int // callers that joined this flight; guarded by Group.mu
}

// Do runs fn once per concurrent key. Joiners wait for the leader and
// share its result (shared=true). If the leader fails — possibly by its
// own context's cancellation — each waiter retries with its own context
// and a new leader is elected, so one caller's cancellation or panic
// never poisons the others; deterministic failures still terminate
// because every retrying waiter eventually leads and receives its own
// error. A panic in fn is published to waiters as an error and then
// propagates to the leader's caller. Waiting is cancellable through ctx;
// fn itself is responsible for observing ctx if it should be.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, false, err
		}
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[string]*call[V])
		}
		c, joined := g.calls[key]
		if !joined {
			c = &call[V]{done: make(chan struct{})}
			g.calls[key] = c
			g.mu.Unlock()
			g.lead(c, key, fn)
			return c.val, false, c.err
		}
		c.joiners++
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			var zero V
			return zero, false, ctx.Err()
		case <-c.done:
			if c.err == nil {
				return c.val, true, nil
			}
			// Leader failed; loop and retry under this caller's context.
		}
	}
}

// lead executes fn and publishes the outcome, surviving panics: the
// deferred publish runs even when fn panics, so the flight is always
// removed and waiters always wake.
func (g *Group[V]) lead(c *call[V], key string, fn func() (V, error)) {
	finished := false
	defer func() {
		if !finished && c.err == nil {
			c.err = fmt.Errorf("sflight: %q: function panicked", key)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
}
