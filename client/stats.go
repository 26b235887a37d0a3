package client

// SubscribeStats: the client side of the flight-recorder push stream.
// One request, then the server pushes a stats/event delta per period
// under the same credit window as query streams — so a consumer that
// stops reading throttles the server instead of growing a queue. The
// feed survives nothing the connection doesn't: on a transport failure
// Next returns the error, and the caller redials and resubscribes with
// FromSeq = the last delta's NextSeq to miss no event the server's ring
// still holds.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"gaea"
	"gaea/internal/wire"
)

// SubscribeOptions tunes one stats subscription.
type SubscribeOptions struct {
	// Period is the push interval (0 = the server default, 1s).
	Period time.Duration
	// FromSeq is the last event sequence already seen (0 = everything
	// the server's ring holds). Pass the previous feed's NextSeq after
	// a reconnect to resume the event stream without gaps.
	FromSeq uint64
	// Window is the delta credit window (0 = 2): how many pushes the
	// server may send ahead of the consumer.
	Window int
}

// StatsFeed is one live stats subscription. Next blocks for the next
// delta; Close cancels the subscription server-side. Not safe for
// concurrent Next calls.
type StatsFeed struct {
	c      *Conn
	ctx    context.Context
	pull   *v2pull
	next   uint64 // last delta's NextSeq: the resume point
	closed bool
}

// SubscribeStats starts a push subscription for periodic stats/event
// deltas.
func (c *Conn) SubscribeStats(ctx context.Context, opts SubscribeOptions) (*StatsFeed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	window := opts.Window
	if window <= 0 {
		window = defaultStreamWindow
	}
	req := &wire.Request{
		Op:     wire.OpSubscribeStats,
		Window: window,
		Epoch:  opts.FromSeq,
		Page:   int(opts.Period / time.Millisecond),
	}
	pull, err := c.t.startStream(req, window)
	if err != nil {
		return nil, err
	}
	return &StatsFeed{c: c, ctx: ctx, pull: pull, next: opts.FromSeq}, nil
}

// Next blocks until the next delta arrives, the context expires, or the
// subscription dies (server shutdown, transport failure). After an
// error the feed is dead: redial and resubscribe with FromSeq=NextSeq.
func (f *StatsFeed) Next() (*gaea.StatsDelta, error) {
	for {
		var pg *v2page
		select {
		case pg = <-f.pull.pages:
		case <-f.ctx.Done():
			f.Close()
			return nil, f.ctx.Err()
		}
		if pg.err != nil {
			f.Close()
			return nil, pg.err
		}
		if pg.stats == nil {
			continue // not a stats page: tolerate unknown frames
		}
		var delta gaea.StatsDelta
		if err := json.Unmarshal(pg.stats, &delta); err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: malformed stats delta: %v", ErrUnavailable, err)
		}
		f.next = delta.NextSeq
		f.c.t.credit(f.pull.id, 1)
		return &delta, nil
	}
}

// NextSeq reports the resume point: the event sequence to pass as
// SubscribeOptions.FromSeq when resubscribing after a reconnect.
func (f *StatsFeed) NextSeq() uint64 { return f.next }

// Close cancels the subscription. Idempotent.
func (f *StatsFeed) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.c.t.cancelStream(f.pull.id)
}
