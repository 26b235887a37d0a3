package wire

// Native fuzz targets for the v2 codec. The decoders face
// attacker-controlled bytes directly off the socket, so the properties
// fuzzed here are the protocol's safety net:
//
//   - no decoder panics or over-allocates on arbitrary bytes (truncation
//     and corruption surface as errors);
//   - decode → encode → decode converges: anything a decoder accepts,
//     the encoder reproduces in decodable form;
//   - the frame reader never over-reads and honors its size bound.
//
// Seed corpora live under testdata/fuzz/ and are generated from the same
// golden encoders the round-trip tests use; regenerate with
// GAEA_REGEN_CORPUS=1 go test ./internal/wire -run TestSeedCorpus.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gaea/internal/object"
	"gaea/internal/sptemp"
)

// fuzzSeedBodies builds the golden frame bodies used both as f.Add seeds
// and as the committed seed corpus.
func fuzzSeedBodies() [][]byte {
	var seeds [][]byte
	add := func(ft byte, enc func(f *Frame)) {
		f := AcquireFrame(ft, 7)
		defer ReleaseFrame(f)
		enc(f)
		b, err := f.Finish()
		if err != nil {
			panic(err)
		}
		// Strip len(4) + type(1) + id uvarint to get the bare body.
		_, n := uvarintAt(b, 5)
		seeds = append(seeds, append([]byte(nil), b[5+n:]...))
	}

	add(F2Hello, func(f *Frame) { EncodeHello(f, &Hello2{Version: V2Version, User: "ana"}) })
	add(F2Req, func(f *Frame) {
		EncodeRequest(f, &Request{
			Op:  OpQuery,
			OID: 9,
			Query: &QueryReq{
				Class:      "rainfall",
				Concept:    "monthly",
				Strategies: []string{"retrieve", "derive"},
				Limit:      10,
				Cursor:     "c2|1|rainfall|5",
				Pred: sptemp.Extent{
					Frame: sptemp.Frame{System: sptemp.RefLongLat, Unit: sptemp.UnitDegree},
					Space: sptemp.Box{MinX: -1, MinY: -2, MaxX: 3, MaxY: 4},
				},
			},
		})
	})
	add(F2Req, func(f *Frame) {
		EncodeRequest(f, &Request{
			Op: OpCommit,
			Batch: &BatchReq{
				ReadEpoch: 3,
				Creates: []Create{{
					Prov: 1,
					Note: "seed",
					Obj:  Object{OID: 11, Class: "rainfall", Attrs: map[string][]byte{"v": {1, 2}}},
				}},
				Updates: []Object{{OID: 12, Class: "rainfall"}},
				Deletes: []uint64{13},
			},
		})
	})
	add(F2Resp, func(f *Frame) {
		EncodeResponse(f, &Response{
			Code:  CodeOK,
			Epoch: 5,
			N:     2,
			Result: &ResultPayload{
				OIDs:     []uint64{1, 2},
				How:      []string{"retrieve", "derive"},
				Stale:    []bool{false, true},
				TasksRun: []uint64{3},
				PlanText: "plan",
				Epoch:    5,
			},
			Raw: &RawObject{
				Rec:   []byte{9, 9, 9},
				Blobs: []object.BlobPayload{{ID: 1, Data: []byte("blob")}},
			},
		})
	})
	add(F2Resp, func(f *Frame) {
		EncodeResponse(f, &Response{Code: 1, Err: "kernel: no such object"})
	})
	return seeds
}

func FuzzV2Decode(f *testing.F) {
	for _, s := range fuzzSeedBodies() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		// Hello.
		if h, err := DecodeHello(body); err == nil {
			f2 := AcquireFrame(F2Hello, 1)
			EncodeHello(f2, h)
			b, err := f2.Finish()
			ReleaseFrame(f2)
			if err == nil {
				_, n := uvarintAt(b, 5)
				if _, err := DecodeHello(b[5+n:]); err != nil {
					t.Fatalf("hello re-decode: %v", err)
				}
			}
		}

		// Request.
		var req Request
		if err := DecodeRequest(body, &req); err == nil {
			f2 := AcquireFrame(F2Req, 1)
			EncodeRequest(f2, &req)
			b, err := f2.Finish()
			ReleaseFrame(f2)
			if err == nil {
				_, n := uvarintAt(b, 5)
				var req2 Request
				if err := DecodeRequest(b[5+n:], &req2); err != nil {
					t.Fatalf("request re-decode: %v", err)
				}
			}
		}

		// Response.
		if resp, err := DecodeResponse(body); err == nil {
			f2 := AcquireFrame(F2Resp, 1)
			EncodeResponse(f2, resp)
			b, err := f2.Finish()
			ReleaseFrame(f2)
			if err == nil {
				_, n := uvarintAt(b, 5)
				if _, err := DecodeResponse(b[5+n:]); err != nil {
					t.Fatalf("response re-decode: %v", err)
				}
			}
		}

		// Credit, page header, raw object: error-accumulating cursors
		// must simply never panic.
		_, _ = DecodeCredit(body)
		d := NewDec(body)
		_ = DecodePageHeader(d)
		_ = DecodeRawObject(d, true)

		// Frame reader over the raw bytes with a tight bound: must
		// terminate with an error or exhaust the input, never over-read.
		fr := NewFrameReader(bytes.NewReader(body), 1<<16)
		for i := 0; i <= len(body); i++ {
			if _, _, _, err := fr.Next(); err != nil {
				break
			}
		}
	})
}

// TestSeedCorpus verifies the committed seed corpus matches the golden
// encoders (and regenerates it under GAEA_REGEN_CORPUS=1).
func TestSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzV2Decode")
	seeds := fuzzSeedBodies()
	if os.Getenv("GAEA_REGEN_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("missing seed corpus entry %s (regenerate with GAEA_REGEN_CORPUS=1): %v", name, err)
		}
	}
}
