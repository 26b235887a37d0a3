package server

// OpSubscribeStats: the flight-recorder push stream. A subscriber asks
// once and the server pushes one PageStats page per period — counter
// rates since the previous push, current gauges and histogram p99s, and
// every event emitted since the sequence the subscriber last saw —
// under the same credit window as OpStreamPush, so a stalled subscriber
// throttles itself instead of growing an unbounded queue. The page
// header's epoch field carries the delta's NextSeq; a reconnecting
// subscriber sends it back as req.Epoch and misses nothing the event
// ring still holds.

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"gaea/internal/obs"
	"gaea/internal/wire"
)

const (
	// defaultStatsPeriod is the push interval when the request leaves
	// req.Page (milliseconds) at zero.
	defaultStatsPeriod = time.Second
	// minStatsPeriod floors the client-requested interval so a
	// misbehaving subscriber cannot turn the registry snapshot into a
	// busy loop.
	minStatsPeriod = 10 * time.Millisecond
)

// pushStatsV2 runs one stats subscription to completion: first delta
// immediately (gauges plus the event backlog past req.Epoch), then one
// per period, each costing one page credit.
func (s *Server) pushStatsV2(vc *v2conn, id uint64, r *v2req, ctx context.Context, req *wire.Request) {
	defer s.reqWG.Done()
	defer vc.finish(id)
	ctx, sp := obs.Start(s.traceCtx(ctx, req), "server/"+req.Op.String())
	start := time.Now()
	defer func() {
		s.requests.Inc()
		s.reqNS.ObserveSince(start)
		sp.End()
	}()
	st := r.stream
	window := req.Window
	if window <= 0 {
		window = 1
	}
	st.grant(window)

	period := time.Duration(req.Page) * time.Millisecond
	if period <= 0 {
		period = defaultStatsPeriod
	}
	if period < minStatsPeriod {
		period = minStatsPeriod
	}

	src := obs.NewDeltaSource(s.reg, s.events, req.Epoch)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for first := true; ; first = false {
		if !first {
			select {
			case <-tick.C:
			case <-ctx.Done():
				vc.send(id, s.errResponse(ctx.Err()))
				return
			case <-s.quit:
				vc.refuse(id, wire.CodeUnavailable, errShuttingDown.Error())
				return
			}
		}
		if err := st.take(ctx, s.quit); err != nil {
			if errors.Is(err, errShuttingDown) {
				vc.refuse(id, wire.CodeUnavailable, err.Error())
			} else {
				vc.send(id, s.errResponse(err))
			}
			return
		}
		delta := src.Next(time.Now())
		body, err := json.Marshal(delta)
		if err != nil {
			vc.send(id, s.errResponse(err))
			return
		}
		f := wire.AcquireFrame(wire.F2Page, id)
		wire.EncodePageHeader(f, wire.PageStats, delta.NextSeq, "", 0)
		f.Bytes(body)
		s.pushedPages.Add(1)
		if err := vc.out.Push(f); err != nil {
			return
		}
	}
}
