package wire

import "testing"

// TestV2FrameCarriesTrace: the v2 binary request frame round-trips the
// trace identity, and an unstamped request costs zero extra bytes.
func TestV2FrameCarriesTrace(t *testing.T) {
	mk := func() *Request {
		q := QueryReq{Class: "rain", Limit: 7}
		return &Request{Op: OpQuery, Query: &q}
	}
	enc := func(r *Request) []byte {
		f := AcquireFrame(F2Req, 1)
		defer ReleaseFrame(f)
		EncodeRequest(f, r)
		b, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), b...)
	}
	plain := enc(mk())
	req := mk()
	req.SetTrace(0xabc123)
	stamped := enc(req)
	if len(stamped) <= len(plain) {
		t.Fatalf("stamped frame (%d bytes) not larger than plain (%d)", len(stamped), len(plain))
	}

	// Frames carry a 4-byte length prefix, a type byte, and a request id
	// before the body EncodeRequest wrote.
	var back Request
	if err := DecodeRequest(stamped[4+1+1:], &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID() != 0xabc123 {
		t.Fatalf("trace id = %x, want abc123", back.TraceID())
	}
	var plainBack Request
	if err := DecodeRequest(plain[4+1+1:], &plainBack); err != nil {
		t.Fatal(err)
	}
	if plainBack.TraceID() != 0 {
		t.Fatalf("unstamped frame decoded trace id %x", plainBack.TraceID())
	}
}
