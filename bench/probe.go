package main

import (
	"bytes"
	"context"

	"gaea"
	"gaea/internal/wire"
)

// Replays shared by the workloads whose op contains a point query. The
// harness cannot see inside the server, so it calls each layer's public
// function itself, with the op's inputs, and times that.

// wireCalls is how many identical codec calls share one span: a single
// encode is a few hundred nanoseconds, too close to the clock's own cost.
const wireCalls = 16

// frameBody encodes one frame the way a peer would and returns its body
// (what FrameReader.Next hands the decoder) and its size on the wire.
func frameBody(ft byte, fill func(*wire.Frame)) (body []byte, size int, err error) {
	f := wire.AcquireFrame(ft, 1)
	fill(f)
	b, err := f.Finish()
	if err != nil {
		wire.ReleaseFrame(f)
		return nil, 0, err
	}
	frame := bytes.Clone(b)
	wire.ReleaseFrame(f)
	_, _, body, err = wire.NewFrameReader(bytes.NewReader(frame), 0).Next()
	return body, len(frame), err
}

// encodeOnce is what a sender does per frame: acquire, encode, finish,
// release (the out queue writes between the last two).
func encodeOnce(ft byte, fill func(*wire.Frame)) {
	f := wire.AcquireFrame(ft, 1)
	fill(f)
	_, _ = f.Finish() // a point query cannot outgrow a frame
	wire.ReleaseFrame(f)
}

// probeQuery replays one remote point query beneath parent, the span of
// the client call it stands for: the request through the codec both ways,
// the same request on the embedded kernel, the answer through the codec
// both ways, and below the kernel the query executor and the object
// store's extent lookup. parent's self time is then what the replays do
// not cover: socket, frame read, request goroutine, pin/lease, out queue.
// It returns the bytes the query put on the wire.
func probeQuery(ctx context.Context, k *gaea.Kernel, at opSpan, parent int64, req gaea.Request) int {
	wq := wire.FromQuery(req)
	wreq := &wire.Request{Op: wire.OpQuery, Query: &wq}
	fillReq := func(f *wire.Frame) { wire.EncodeRequest(f, wreq) }
	at.timed(parent, "wire.encode_request", wireCalls, func() { encodeOnce(wire.F2Req, fillReq) })
	reqBody, reqSize, err := frameBody(wire.F2Req, fillReq)
	if err != nil {
		return 0
	}
	at.timed(parent, "wire.decode_request", wireCalls, func() {
		var r wire.Request
		_ = wire.DecodeRequest(reqBody, &r) // decoding our own encoding
	})

	var res *gaea.Result
	kq := at.timed(parent, "kernel.query", 1, func() { res, err = k.Query(ctx, req) })
	if err != nil {
		return 0
	}
	epoch := k.Objects.Pin()
	ra := at.timed(kq, "query.run_at", 1, func() { _, _ = k.Queries.RunAt(ctx, req, epoch) })
	at.timed(ra, "object.query_at", 1, func() { _, _ = k.Objects.QueryAt(req.Class, req.Pred, epoch) })
	k.Objects.Unpin(epoch)

	wresp := &wire.Response{Result: wire.FromResult(res)}
	fillResp := func(f *wire.Frame) { wire.EncodeResponse(f, wresp) }
	at.timed(parent, "wire.encode_response", wireCalls, func() { encodeOnce(wire.F2Resp, fillResp) })
	respBody, respSize, err := frameBody(wire.F2Resp, fillResp)
	if err != nil {
		return 0
	}
	at.timed(parent, "wire.decode_response", wireCalls, func() { _, _ = wire.DecodeResponse(respBody) })
	return reqSize + respSize
}
