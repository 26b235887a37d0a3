package gaea

// Tests for the create path of a load session: OIDs reserved by one
// atomic add under concurrent sessions, and what a create allocates.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gaea/internal/object"
	"gaea/internal/value"
)

// TestReserveConcurrentSessions: four goroutines run sessions of rain
// gauge creates at once, rolling back every third. Every committed OID is
// distinct and reads back, each session's OIDs ascend, and after a crash
// and a reopen the next create's OID is above every committed one: the
// sequence value the commits pinned is never issued again.
func TestReserveConcurrentSessions(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir, Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defineRainClass(t, k)
	const workers, sessions, creates = 4, 12, 40
	var (
		mu        sync.Mutex
		committed = make(map[object.OID]float64)
		wg        sync.WaitGroup
		errs      = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				for n := 0; n < sessions; n++ {
					s := k.Begin(context.Background())
					oids := make([]object.OID, 0, creates)
					for i := 0; i < creates; i++ {
						mm := float64((w*sessions+n)*creates + i)
						oid, err := s.Create(rainObject(mm, mm*20), "")
						if err != nil {
							return err
						}
						oids = append(oids, oid)
					}
					for i := 1; i < len(oids); i++ {
						if oids[i] <= oids[i-1] {
							return fmt.Errorf("session %d/%d: OID %d staged after %d", w, n, oids[i], oids[i-1])
						}
					}
					if n%3 == 2 {
						if err := s.Rollback(); err != nil {
							return err
						}
						continue
					}
					if err := s.Commit(); err != nil {
						return err
					}
					mu.Lock()
					for i, oid := range oids {
						if _, dup := committed[oid]; dup {
							mu.Unlock()
							return fmt.Errorf("OID %d committed twice", oid)
						}
						committed[oid] = float64((w*sessions+n)*creates + i)
					}
					mu.Unlock()
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if want := workers * (sessions - sessions/3) * creates; len(committed) != want {
		t.Fatalf("%d OIDs committed, want %d", len(committed), want)
	}

	// Crash: abandon the kernel without Close; the WAL holds every
	// commit and the sequence pins with them.
	k2, err := Open(dir, Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatalf("reopen after the crash: %v", err)
	}
	defer k2.Close()
	var top object.OID
	for oid, mm := range committed {
		top = max(top, oid)
		got, err := k2.Objects.Get(oid)
		if err != nil || got.Attrs["mm"].(value.Float) != value.Float(mm) {
			t.Fatalf("object %d after the crash = %+v, %v; want mm %v", oid, got, err, mm)
		}
	}
	next, err := k2.CreateObject(context.Background(), rainObject(-1, -100), "")
	if err != nil {
		t.Fatal(err)
	}
	if next <= top {
		t.Errorf("after the crash the next create got OID %d, at or below the committed %d", next, top)
	}
}

// TestSessionCommitAllocates is a ceiling on what a load session
// allocates per create: sessions of 1,024 rain gauges built beforehand,
// Create and Commit, measured as the growth of the process's total
// allocation. It measures about 230 B; the ceiling leaves 30 % over
// that.
func TestSessionCommitAllocates(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation ceiling: not under -race or -short")
	}
	const load, sessions = 1024, 8
	k := openKernel(t)
	defineRainClass(t, k)
	objs := make([][]*object.Object, sessions+1)
	for n := range objs {
		for i := 0; i < load; i++ {
			mm := float64(n*load + i)
			objs[n] = append(objs[n], rainObject(mm, mm*20))
		}
	}
	run := func(objs []*object.Object) {
		s := k.Begin(context.Background())
		for _, o := range objs {
			if _, err := s.Create(o, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run(objs[0]) // the class's first: its heap, indexes and load task base
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range objs[1:] {
		run(o)
	}
	runtime.ReadMemStats(&after)
	perCreate := float64(after.TotalAlloc-before.TotalAlloc) / (sessions * load)
	t.Logf("%.0f B allocated per create", perCreate)
	const ceiling = 300
	if perCreate > ceiling {
		t.Errorf("a load session allocates %.0f B per create, above the ceiling of %d B", perCreate, ceiling)
	}
}
