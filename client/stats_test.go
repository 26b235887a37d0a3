package client

// SubscribeStats integration over a real unix-socket server: deltas
// flow on the push period, kernel events (commit groups) ride them, and
// a reconnecting subscriber resumes at NextSeq with no duplicate and no
// gap — the flight-recorder contract the fed health monitor and `gaea
// top -watch` are built on.

import (
	"testing"
	"time"

	"gaea"
)

// collectEvents pulls deltas until the deadline or until want events of
// the given type arrived, returning them in arrival order.
func collectEvents(t *testing.T, feed *StatsFeed, typ string, want int, deadline time.Duration) []gaea.Event {
	t.Helper()
	var out []gaea.Event
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) && len(out) < want {
		d, err := feed.Next()
		if err != nil {
			t.Fatalf("feed broke after %d/%d events: %v", len(out), want, err)
		}
		for _, ev := range d.Events {
			if ev.Type == typ {
				out = append(out, ev)
			}
		}
	}
	return out
}

// TestSubscribeStatsDeltasAndEvents: deltas arrive on the period, a
// session commit surfaces as a commit_group event, and once primed the
// deltas carry counter rates.
func TestSubscribeStatsDeltasAndEvents(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)

	feed, err := c.SubscribeStats(ctx, SubscribeOptions{Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	seedRain(t, Embed(k), 3, 1.0)
	got := collectEvents(t, feed, "commit_group", 1, 5*time.Second)
	if len(got) != 1 {
		t.Fatalf("saw %d commit_group events, want 1", len(got))
	}
	if got[0].Fields["creates"] != "3" {
		t.Fatalf("commit_group fields = %v, want creates=3", got[0].Fields)
	}

	// The second and later deltas are primed: rates present (possibly
	// zero-valued, but the map exists).
	d, err := feed.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Rates == nil {
		t.Fatal("primed delta carries no rates map")
	}
	if d.NextSeq < got[0].Seq {
		t.Fatalf("NextSeq %d behind shipped event %d", d.NextSeq, got[0].Seq)
	}
}

// TestSubscribeStatsResumeAfterReconnect: a subscriber that reconnects
// with FromSeq = the previous feed's NextSeq sees every later event
// exactly once — no duplicates, no gaps.
func TestSubscribeStatsResumeAfterReconnect(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})

	// First subscription: watch one commit land, then drop the
	// connection entirely.
	c1 := dial(t, addr)
	feed1, err := c1.SubscribeStats(ctx, SubscribeOptions{Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	seedRain(t, Embed(k), 2, 1.0)
	first := collectEvents(t, feed1, "commit_group", 1, 5*time.Second)
	if len(first) != 1 {
		t.Fatalf("first feed saw %d commit_group events, want 1", len(first))
	}
	resume := feed1.NextSeq()
	if resume < first[0].Seq {
		t.Fatalf("resume point %d behind last seen event %d", resume, first[0].Seq)
	}
	feed1.Close()
	c1.Close()

	// Events emitted while nobody is subscribed must not be lost: the
	// server's ring holds them for the resume.
	seedRain(t, Embed(k), 4, 2.0)
	seedRain(t, Embed(k), 5, 3.0)

	c2 := dial(t, addr)
	feed2, err := c2.SubscribeStats(ctx, SubscribeOptions{Period: 20 * time.Millisecond, FromSeq: resume})
	if err != nil {
		t.Fatal(err)
	}
	defer feed2.Close()
	second := collectEvents(t, feed2, "commit_group", 2, 5*time.Second)
	if len(second) != 2 {
		t.Fatalf("resumed feed saw %d commit_group events, want 2", len(second))
	}
	// No duplicate of the pre-reconnect event, no gap: the two commits
	// arrive in order with ascending sequences past the resume point.
	if second[0].Seq <= resume || second[1].Seq <= second[0].Seq {
		t.Fatalf("resumed sequences %d,%d not strictly past resume point %d",
			second[0].Seq, second[1].Seq, resume)
	}
	if second[0].Fields["creates"] != "4" || second[1].Fields["creates"] != "5" {
		t.Fatalf("resumed commits = %v, %v; want creates 4 then 5",
			second[0].Fields, second[1].Fields)
	}
}
