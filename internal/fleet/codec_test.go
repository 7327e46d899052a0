package fleet

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite binary-codec golden files")

// goldenRequest exercises every request field: replay seqs, seq 0, a
// repeated device, and non-integral floats.
func goldenRequest() []BatchEventJSON {
	return []BatchEventJSON{
		{Device: "sensor-001", Seq: 1, QoSSpecJSON: QoSSpecJSON{SMaxMs: 4.5, FMin: 0.97}},
		{Device: "sensor-001", Seq: 2, QoSSpecJSON: QoSSpecJSON{SMaxMs: 3.25, FMin: 0.99}},
		{Device: "gateway/эталон", Seq: 0, QoSSpecJSON: QoSSpecJSON{SMaxMs: 10, FMin: 0}},
	}
}

// goldenResponse exercises every result shape: a planful decision with
// -1 sentinels, a degraded stay-put, and error statuses.
func goldenResponse() []BatchResultJSON {
	return []BatchResultJSON{
		{Status: 200, Decision: &DecisionJSON{
			Device: "sensor-001", Seq: 1, From: 3, To: 7,
			Reconfigured: true, Violated: false,
			CostMs: 12.5, BinaryMigrationMs: 10.25, BitstreamMs: 2.25,
			MigratedTasks: 2, ReloadedPRRs: 1,
			Plan: []ActionJSON{
				{Kind: "copy-binary", Task: 4, PE: 1, PRR: -1, Bitstream: -1, CostMs: 10.25},
				{Kind: "load-bitstream", Task: -1, PE: -1, PRR: 0, Bitstream: 9, CostMs: 2.25},
				{Kind: "set-clr", Task: 4, PE: -1, PRR: -1, Bitstream: -1},
				{Kind: "reorder", Task: 5, PE: -1, PRR: -1, Bitstream: -1},
			},
		}},
		{Status: 200, Decision: &DecisionJSON{
			Device: "sensor-001", Seq: 2, From: 7, To: 7, Degraded: true,
		}},
		{Status: 404, Error: `no such device: "ghost"`},
		{Status: 409, Error: "stale seq: seq 1 behind 2"},
	}
}

// checkGolden encodes got and compares it byte-for-byte to the
// committed golden file (regenerate with `go test -run Golden -update`).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from golden file (%d bytes vs %d); the wire format is frozen — bump the codec version instead", name, len(got), len(want))
	}
}

// TestBinaryCodecGolden freezes the wire bytes: encodings must match
// the committed golden files, decode back to the identical structs,
// and re-encode to the identical bytes.
func TestBinaryCodecGolden(t *testing.T) {
	req, err := AppendBatchRequest(nil, goldenRequest())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch_request.clrb", req)

	resp, err := AppendBatchResponse(nil, goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch_response.clrb", resp)

	// Round-trip: decode the frozen bytes, compare structs, re-encode.
	events, err := DecodeBatchRequest(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, goldenRequest()) {
		t.Errorf("request round-trip mismatch:\n got %+v\nwant %+v", events, goldenRequest())
	}
	req2, err := AppendBatchRequest(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req, req2) {
		t.Error("request re-encode is not byte-identical")
	}

	results, err := DecodeBatchResponse(resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, goldenResponse()) {
		t.Errorf("response round-trip mismatch:\n got %+v\nwant %+v", results, goldenResponse())
	}
	resp2, err := AppendBatchResponse(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, resp2) {
		t.Error("response re-encode is not byte-identical")
	}
}

// TestBinaryCodecStability encodes the same values twice into reused
// buffers and expects identical bytes — the byte-stable contract the
// pooled scratch path depends on.
func TestBinaryCodecStability(t *testing.T) {
	buf := make([]byte, 0, 64)
	a, err := AppendBatchResponse(buf[:0], goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), a...)
	b, err := AppendBatchResponse(a[:0], goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, b) {
		t.Error("encoding differs between runs over a reused buffer")
	}
}

// TestBinaryCodecRejects drives the decoder's failure edges: every
// malformed input must answer ErrBinCodec, never panic or succeed.
func TestBinaryCodecRejects(t *testing.T) {
	validReq, err := AppendBatchRequest(nil, goldenRequest())
	if err != nil {
		t.Fatal(err)
	}
	validResp, err := AppendBatchResponse(nil, goldenResponse())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(src []byte, off int, b byte) []byte {
		out := append([]byte(nil), src...)
		out[off] = b
		return out
	}
	cases := []struct {
		name string
		req  bool
		data []byte
	}{
		{"empty", true, nil},
		{"bad magic", true, mutate(validReq, 0, 'X')},
		{"bad version", true, mutate(validReq, 4, 99)},
		{"response kind on request decoder", true, validResp},
		{"request kind on response decoder", false, validReq},
		{"truncated", true, validReq[:len(validReq)-1]},
		{"trailing byte", true, append(append([]byte(nil), validReq...), 0)},
		{"forged count", true, mutate(validReq, 6, 0xff)},
		{"unknown flags", false, func() []byte {
			// Flags byte of the first decision: header(10) + status(2) +
			// device str(2+10) + seq(8) + from/to(8).
			return mutate(validResp, 10+2+2+10+8+8, 0xf0)
		}()},
		{"truncated response", false, validResp[:len(validResp)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var derr error
			if tc.req {
				_, derr = DecodeBatchRequest(tc.data, nil)
			} else {
				_, derr = DecodeBatchResponse(tc.data, nil)
			}
			if !errors.Is(derr, ErrBinCodec) {
				t.Errorf("want ErrBinCodec, got %v", derr)
			}
		})
	}

	t.Run("encode rejects unknown action kind", func(t *testing.T) {
		_, err := AppendBatchResponse(nil, []BatchResultJSON{{Status: 200, Decision: &DecisionJSON{
			Plan: []ActionJSON{{Kind: "warp-drive"}},
		}}})
		if !errors.Is(err, ErrBinCodec) {
			t.Errorf("want ErrBinCodec, got %v", err)
		}
	})
	t.Run("encode rejects 200 without decision", func(t *testing.T) {
		_, err := AppendBatchResponse(nil, []BatchResultJSON{{Status: 200}})
		if !errors.Is(err, ErrBinCodec) {
			t.Errorf("want ErrBinCodec, got %v", err)
		}
	})
}

// TestBatchResponsePlanSizing decodes a response whose plans hold 0, 1,
// 103 and 500 actions: every plan is sized once from its length (cap
// equals len), so decoding costs one allocation per non-empty plan
// beyond what the same decisions cost without plans.
func TestBatchResponsePlanSizing(t *testing.T) {
	sizes := []int{0, 1, 103, 500}
	var planful, planless []BatchResultJSON
	nonEmpty := 0
	for i, n := range sizes {
		d := syntheticDecision(n)
		d.Seq = uint64(i + 1)
		bare := d
		bare.Plan = nil
		planful = append(planful, BatchResultJSON{Status: 200, Decision: &d})
		planless = append(planless, BatchResultJSON{Status: 200, Decision: &bare})
		if n > 0 {
			nonEmpty++
		}
	}
	body, err := AppendBatchResponse(nil, planful)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResponse(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, planful) {
		t.Fatal("decoded response differs from the encoded one")
	}
	for i, res := range got {
		if p := res.Decision.Plan; cap(p) != len(p) {
			t.Errorf("plan of %d actions decoded with capacity %d", len(p), cap(p))
		} else if len(p) != sizes[i] {
			t.Errorf("result %d: plan of %d actions, want %d", i, len(p), sizes[i])
		}
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	bareBody, err := AppendBatchResponse(nil, planless)
	if err != nil {
		t.Fatal(err)
	}
	decodeAllocs := func(data []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeBatchResponse(data, make([]BatchResultJSON, 0, len(sizes))); err != nil {
				t.Fatal(err)
			}
		})
	}
	if extra := decodeAllocs(body) - decodeAllocs(bareBody); extra != float64(nonEmpty) {
		t.Errorf("plans cost %v allocations, want one per non-empty plan (%d)", extra, nonEmpty)
	}
}

// FuzzBinaryCodec feeds arbitrary bytes to both decoders: they must
// never panic, and any input that decodes must re-encode to the exact
// same bytes (the canonical-encoding property).
func FuzzBinaryCodec(f *testing.F) {
	if seed, err := AppendBatchRequest(nil, goldenRequest()); err == nil {
		f.Add(seed)
	}
	if seed, err := AppendBatchResponse(nil, goldenResponse()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte("CLRB"))
	f.Add([]byte{'C', 'L', 'R', 'B', 1, 1, 0, 0, 0, 0})
	f.Add([]byte{'C', 'L', 'R', 'B', 1, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if events, err := DecodeBatchRequest(data, nil); err == nil {
			out, err := AppendBatchRequest(nil, events)
			if err != nil {
				t.Fatalf("re-encoding decoded request: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("request decode/encode not canonical:\n in  %x\n out %x", data, out)
			}
		}
		if results, err := DecodeBatchResponse(data, nil); err == nil {
			out, err := AppendBatchResponse(nil, results)
			if err != nil {
				t.Fatalf("re-encoding decoded response: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("response decode/encode not canonical:\n in  %x\n out %x", data, out)
			}
		}
	})
}
