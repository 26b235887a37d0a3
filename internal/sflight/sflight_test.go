package sflight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitJoiners blocks until n callers have joined key's flight, so a
// test releases the leader only once every joiner is committed to it.
func awaitJoiners[V any](t *testing.T, g *Group[V], key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		c := g.calls[key]
		joined := c != nil && c.joiners >= n
		g.mu.Unlock()
		if joined {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers never joined the flight of %q", n, key)
		}
	}
}

func TestDoCollapsesConcurrentCalls(t *testing.T) {
	var g Group[int]
	var executions int32
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([]int, n)
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, s, err := g.Do(context.Background(), "k", func() (int, error) {
				atomic.AddInt32(&executions, 1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, s
		}(i)
	}
	// The leader blocks on release; release only once the other n-1
	// callers are waiting on its flight rather than about to enter Do.
	awaitJoiners(t, &g, "k", n-1)
	close(release)
	wg.Wait()
	if executions != 1 {
		t.Errorf("executed %d times, want 1", executions)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d", i, vals[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
}

func TestDoWaiterRetriesAfterLeaderFailure(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	var calls int32
	blocked := make(chan struct{})
	fail := make(chan struct{})
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) {
			close(blocked)
			<-fail
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-blocked
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := g.Do(context.Background(), "k", func() (int, error) {
			atomic.AddInt32(&calls, 1)
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Errorf("waiter got %d, %v; want 7 after retry", v, err)
		}
	}()
	close(fail)
	<-done
	if calls != 1 {
		t.Errorf("waiter ran fn %d times, want 1", calls)
	}
}

func TestDoWaiterCancellation(t *testing.T) {
	var g Group[int]
	blocked := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go g.Do(context.Background(), "k", func() (int, error) {
		close(blocked)
		<-release
		return 1, nil
	})
	<-blocked
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDoPanicIsPublishedAndPropagates(t *testing.T) {
	var g Group[int]
	blocked := make(chan struct{})
	boom := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader's caller")
			}
		}()
		g.Do(context.Background(), "k", func() (int, error) {
			close(blocked)
			<-boom
			panic("kaboom")
		})
	}()
	<-blocked
	go func() {
		// The waiter must not hang: it sees the published error, retries,
		// and succeeds with its own execution.
		v, _, err := g.Do(context.Background(), "k", func() (int, error) { return 9, nil })
		if err != nil || v != 9 {
			waiterDone <- errors.New("waiter did not recover after leader panic")
			return
		}
		waiterDone <- nil
	}()
	close(boom)
	if err := <-waiterDone; err != nil {
		t.Error(err)
	}
}
