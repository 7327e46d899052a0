package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// bs is a backslash, for building escaped JSON strings below.
const bs = `\`

// encodeDecisionRef is what the QoS endpoint wrote before the codec:
// json.NewEncoder(w).Encode's bytes.
func encodeDecisionRef(d *DecisionJSON) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(d)
	return buf.Bytes(), err
}

// syntheticDecision builds an answer with a plan of n actions in the
// shape the runtime emits: migrations with -1 PRR/bitstream sentinels,
// bitstream loads with -1 task/PE, and cost-free bookkeeping steps.
func syntheticDecision(n int) DecisionJSON {
	d := DecisionJSON{
		Device: "dev-000042", Seq: 17, From: 12, To: 57, Reconfigured: n > 0,
	}
	for i := 0; i < n; i++ {
		a := ActionJSON{Kind: binActionKinds[i%len(binActionKinds)], Task: -1, PE: -1, PRR: -1, Bitstream: -1}
		switch a.Kind {
		case "copy-binary":
			a.Task, a.PE, a.CostMs = i%40, i%6, 0.29+0.0137*float64(i)
			d.BinaryMigrationMs += a.CostMs
			d.MigratedTasks++
		case "load-bitstream":
			a.PRR, a.Bitstream, a.CostMs = i%3, i, 1.7+0.0419*float64(i)
			d.BitstreamMs += a.CostMs
			d.ReloadedPRRs++
		default:
			a.Task = i % 40
		}
		d.Plan = append(d.Plan, a)
	}
	d.CostMs = d.BinaryMigrationMs + d.BitstreamMs
	return d
}

// checkDecisionDecode requires DecodeDecision to agree with
// json.Unmarshal into a zeroed target on error-ness and value. The
// target starts dirty: DecodeDecision must zero it.
func checkDecisionDecode(t *testing.T, data []byte) {
	t.Helper()
	var want DecisionJSON
	werr := json.Unmarshal(data, &want)
	got := DecisionJSON{Device: "stale", Seq: 9, Degraded: true, CostMs: 1, Plan: []ActionJSON{{Kind: "reorder"}}}
	gerr := DecodeDecision(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode %q: error %v, encoding/json %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
}

// checkQoSRequestDecode requires DecodeQoSRequest to agree with the
// server's strict decodeJSON on error-ness and value.
func checkQoSRequestDecode(t *testing.T, data []byte) {
	t.Helper()
	var want QoSRequest
	werr := decodeJSON(bytes.NewReader(data), &want)
	got := QoSRequest{QoSSpecJSON: QoSSpecJSON{SMaxMs: 3, FMin: 0.5}, Seq: 9}
	gerr := DecodeQoSRequest(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode %q: error %v, decodeJSON %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
}

// checkDecisionAppend requires AppendDecision to write the Encoder's
// bytes after dst's contents, or fail with its error and leave dst as
// it was.
func checkDecisionAppend(t *testing.T, d *DecisionJSON) []byte {
	t.Helper()
	want, werr := encodeDecisionRef(d)
	const prefix = "prefix"
	got, gerr := AppendDecision([]byte(prefix), d)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("append %#v: error %v, encoding/json %v", d, gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() || string(got) != prefix {
			t.Fatalf("append %#v: error %q and dst %q, encoding/json %q", d, gerr, got, werr)
		}
		return nil
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("append %#v:\n got %s\nwant %s", d, got[len(prefix):], want)
	}
	return want
}

// decisionSeeds seed FuzzDecisionJSON's byte input: golden and
// synthetic answers, and every non-canonical form the fallback must
// take (case-folded keys, escapes, duplicates, null, whitespace,
// unknown keys, type mismatches, bad numbers).
func decisionSeeds(t testing.TB) [][]byte {
	var out [][]byte
	add := func(d *DecisionJSON) {
		b, err := encodeDecisionRef(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	for _, r := range goldenResponse() {
		if r.Decision != nil {
			add(r.Decision)
		}
	}
	for _, n := range []int{0, 1, 103} {
		d := syntheticDecision(n)
		add(&d)
	}
	for _, s := range []string{
		`{"device":"d","seq":1,"from":2,"to":2,"degraded":true}`,
		`{"device":"d","seq":1,"from":2,"to":5,"reconfigured":true}`,
		`{}`, `{}` + "\n", `{}` + "\n\n", ` {}`, `[]`, `null`, ``, `{`, `{"device":"d"`,
		`{"DEVICE":"d","From":1,"Plan":[{"KIND":"reorder"}]}`,
		`{"device":"a` + bs + `u003cb` + bs + `"c"}`,
		`{"device":"` + bs + `u00e9` + bs + `ud800"}`,
		`{"device":"é","plan":[{"kind":"set-clr"}]}`,
		"{\"device\":\"\xff\"}",
		`{"from":1,"from":2}`, `{"plan":[],"plan":[{"kind":"reorder"}]}`,
		`{"device":null,"seq":null,"plan":null}`, `{"plan":[null]}`,
		`{"device":"d", "from":1}`, `{"device":"d","extra":{"x":[1]}}`,
		`{"plan":[]}`, `{"plan":[{}]}`, `{"plan":[{},{"kind":"copy-binary","task":3}]}`,
		`{"plan":[{"kind":"warp-drive"}]}`, `{"plan":[{"kind":"a]b"}]}`, `{"plan":[{"ta]sk":1}]}`,
		`{"plan":[{{"kind":"reorder"}]}`, `{"plan":[{"kind":"reorder"}}]}`, `{"plan":[{"kind":"reorder"},]}`,
		`{"from":1.5}`, `{"from":1e2}`, `{"from":-0}`, `{"from":01}`, `{"from":9223372036854775808}`,
		`{"seq":-1}`, `{"seq":18446744073709551616}`, `{"seq":18446744073709551615}`,
		`{"cost_ms":1e400}`, `{"cost_ms":-1e-400}`, `{"cost_ms":1E+5}`, `{"cost_ms":.5}`, `{"cost_ms":1.}`,
		`{"cost_ms":"1"}`, `{"reconfigured":1}`, `{"reconfigured":tru}`, `{"violated":false,"degraded":false}`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

// qosRequestSeeds seed FuzzQoSRequestJSON's byte input: the bodies
// TestDecodeJSONRejectsTrailingData and TestServerErrorMapping post,
// and the same non-canonical forms as decisionSeeds.
func qosRequestSeeds() [][]byte {
	good := `{"s_max_ms":12.5,"f_min":0.97}`
	var out [][]byte
	for _, s := range []string{
		good, good + "\n\t ", good + good, good + "junk", good + "]", good + "\n",
		`{"s_max_ms":10,"f_min":0.5}`, `{not json`, `{"id":"x","database":"red","unknown_field":1}`,
		`{"id":"x","database":"red","initial":{"s_max_ms":10,"f_min":0.5}}`,
		`{"s_max_ms":-1,"f_min":0.5}`, `{"s_max_ms":10,"f_min":0.5,"seq":7}`, `{"seq":7,"f_min":0.5,"s_max_ms":10}`,
		`{"S_MAX_MS":10,"F_Min":0.5,"SEQ":7}`, `{"s_max_ms":10,"s_max_ms":11}`, `{"s_max_ms":null,"seq":null}`,
		`{"s_max_ms": 10}`, `{"s_max_ms":"10"}`, `{"seq":-1}`, `{"seq":1.0}`, `{"s_max_ms":1e999}`,
		`{"s_max_ms":1e-7,"f_min":5e-324}`, `{}`, ``, `[]`, `{"s_max_ms":10,}`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

// TestDecisionJSONMatchesEncoding pins the appender against the
// Encoder on the values where encoding/json's format has rules of its
// own: exponent cut-offs and their clean-up, negative zero, HTML and
// control escapes, invalid UTF-8, U+2028/U+2029, omitempty, NaN/Inf.
func TestDecisionJSONMatchesEncoding(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 1.2345e21,
		-1e21, 123456789.123, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1e-100}
	for _, f := range floats {
		d := syntheticDecision(2)
		d.CostMs, d.Plan[1].CostMs = f, -f
		checkDecisionDecode(t, checkDecisionAppend(t, &d))
	}
	for _, dev := range []string{"", "plain", "a<b>&c", "q\"uote\\back", "tab\tnl\nnul\x00del\x7f", "\xff\xfe", "é",
		"line\u2028para\u2029", "ü\xc3"} {
		d := syntheticDecision(1)
		d.Device = dev
		checkDecisionDecode(t, checkDecisionAppend(t, &d))
	}
	for _, d := range []DecisionJSON{
		{},
		{Device: "d", Degraded: true, From: -1, To: math.MaxInt, Seq: math.MaxUint64, MigratedTasks: math.MinInt},
		{Device: "d", Plan: []ActionJSON{}},
	} {
		checkDecisionDecode(t, checkDecisionAppend(t, &d))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 4; i++ {
			d := syntheticDecision(3)
			switch i {
			case 0:
				d.CostMs = bad
			case 1:
				d.BitstreamMs = bad
			case 2:
				d.Plan[2].CostMs = bad
			case 3:
				d.BinaryMigrationMs, d.Plan[0].CostMs = bad, -bad
			}
			checkDecisionAppend(t, &d)
		}
	}
}

// TestDecodeDecisionOwnsItsMemory: a decoded answer must not alias the
// body it came from, because the client's read buffer is pooled.
func TestDecodeDecisionOwnsItsMemory(t *testing.T) {
	d := syntheticDecision(4)
	body, err := AppendDecision(nil, &d)
	if err != nil {
		t.Fatal(err)
	}
	var got DecisionJSON
	if err := DecodeDecision(body, &got); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("decision changed with its body: %#v", got)
	}
}

// TestJSONCodecAllocs pins the codec's allocations: appending into a
// warm buffer allocates nothing; decoding allocates the device string
// and, when there is a plan, the plan.
func TestJSONCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		actions int
		decode  float64
	}{{0, 1}, {103, 2}} {
		d := syntheticDecision(tc.actions)
		buf, err := AppendDecision(nil, &d)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() { buf, _ = AppendDecision(buf[:0], &d) }); a != 0 {
			t.Errorf("AppendDecision (%d actions) allocates %v times, want 0", tc.actions, a)
		}
		var got DecisionJSON
		if a := testing.AllocsPerRun(100, func() {
			if err := DecodeDecision(buf, &got); err != nil {
				t.Fatal(err)
			}
		}); a != tc.decode {
			t.Errorf("DecodeDecision (%d actions) allocates %v times, want %v", tc.actions, a, tc.decode)
		}
	}
	req := QoSRequest{QoSSpecJSON: QoSSpecJSON{SMaxMs: 12.5, FMin: 0.97}, Seq: 8}
	buf, err := AppendQoSRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var got QoSRequest
	if a := testing.AllocsPerRun(100, func() {
		buf, _ = AppendQoSRequest(buf[:0], req)
		if err := DecodeQoSRequest(buf, &got); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("QoS request append and decode allocate %v times, want 0", a)
	}
}

// FuzzDecisionJSON checks the decision codec against encoding/json:
// a value built from the arguments appends to exactly the Encoder's
// bytes (or fails where it fails), those bytes decode on the canonical
// path when they hold no escape, and arbitrary bytes decode with
// json.Unmarshal's error-ness and value.
func FuzzDecisionJSON(f *testing.F) {
	for _, data := range decisionSeeds(f) {
		f.Add(data, "dev-1", uint64(0), -1, 7, uint8(5), 1.25, 0.5, 0.75, 2, 1, uint8(4), uint8(0), "", 3, 1, 0.125)
	}
	f.Add([]byte(nil), "a<b", uint64(1<<63), 0, 0, uint8(0), 1e21, 1e-7, math.NaN(), 0, 0, uint8(0), uint8(0), "", 0, 0, 0.0)
	f.Add([]byte(nil), "\u2028", uint64(1), 1, 2, uint8(1), 0.1, 0.2, 0.3, 0, 0, uint8(103), uint8(255), "custom", 0, 0, math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, device string, seq uint64, from, to int, flags uint8,
		cost, bin, bit float64, migrated, reloaded int, planLen, kind uint8, kindStr string, task, pe int, actionCost float64) {
		checkDecisionDecode(t, data)

		d := DecisionJSON{
			Device: device, Seq: seq, From: from, To: to,
			Reconfigured: flags&1 != 0, Violated: flags&2 != 0, Degraded: flags&4 != 0,
			CostMs: cost, BinaryMigrationMs: bin, BitstreamMs: bit,
			MigratedTasks: migrated, ReloadedPRRs: reloaded,
		}
		if flags&8 != 0 {
			d.Plan = []ActionJSON{}
		}
		knownKinds := true
		for i := 0; i < int(planLen); i++ {
			a := ActionJSON{Task: task + i, PE: pe - i, PRR: i - 1, Bitstream: task ^ i, CostMs: actionCost * float64(i)}
			if k := int(kind) + i; kind >= 200 {
				a.Kind, knownKinds = kindStr, false
			} else {
				a.Kind = binActionKinds[k%len(binActionKinds)]
			}
			d.Plan = append(d.Plan, a)
		}
		out := checkDecisionAppend(t, &d)
		if out == nil {
			return
		}
		checkDecisionDecode(t, out)
		if knownKinds && !bytes.Contains(out, []byte(bs)) {
			var got DecisionJSON
			if !decodeDecisionCanonical(out, &got) {
				t.Fatalf("appended answer %s missed the canonical decoder", out)
			}
		}
	})
}

// FuzzQoSRequestJSON checks the request codec against encoding/json:
// a request built from the arguments appends to exactly json.Marshal's
// bytes (or fails where it fails) and decodes back on the canonical
// path, and arbitrary bytes decode with decodeJSON's error-ness and
// value.
func FuzzQoSRequestJSON(f *testing.F) {
	for _, data := range qosRequestSeeds() {
		f.Add(data, 12.5, 0.97, uint64(0))
	}
	f.Add([]byte(nil), 1e21, 1e-7, uint64(math.MaxUint64))
	f.Add([]byte(nil), math.NaN(), 0.5, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, sMax, fMin float64, seq uint64) {
		checkQoSRequestDecode(t, data)

		q := QoSRequest{QoSSpecJSON: QoSSpecJSON{SMaxMs: sMax, FMin: fMin}, Seq: seq}
		want, werr := json.Marshal(q)
		got, gerr := AppendQoSRequest(nil, q)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("append %+v: error %v, json.Marshal %v", q, gerr, werr)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("append %+v: error %q, json.Marshal %q", q, gerr, werr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("append %+v:\n got %s\nwant %s", q, got, want)
		}
		checkQoSRequestDecode(t, got)
		var back QoSRequest
		if !decodeQoSRequestCanonical(got, &back) {
			t.Fatalf("appended request %s missed the canonical decoder", got)
		}
	})
}

// TestQoSBodyOverCapAnswers413: the QoS handler reads its body whole
// up to the cap, so a body over the cap answers 413 even when the
// excess is whitespace after a valid value.
func TestQoSBodyOverCapAnswers413(t *testing.T) {
	srv, err := NewServer(ServerConfig{Databases: fleetDatabases(t), Logger: quietLogger(), MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	spec := looseSpec(getFixture(t).red)
	if _, err := srv.Registry().Register(DeviceParams{ID: "cap", Database: "red", PRC: 0.5, Initial: spec}); err != nil {
		t.Fatal(err)
	}
	good := fmt.Sprintf(`{"s_max_ms":%g,"f_min":%g}`, spec.SMaxMs, spec.FMin)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		body string
		want int
	}{
		{good, http.StatusOK},
		{good + strings.Repeat(" ", 256-len(good)), http.StatusOK},
		{good + strings.Repeat(" ", 257-len(good)), http.StatusRequestEntityTooLarge},
		{good + strings.Repeat("\n", 1024), http.StatusRequestEntityTooLarge},
		{strings.Repeat("x", 1024), http.StatusRequestEntityTooLarge},
	} {
		status, body, err := postRaw(ts.Client(), ts.URL+"/v1/devices/cap/qos", "application/json", []byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if status != tc.want {
			t.Errorf("%d-byte body: status %d, want %d (%s)", len(tc.body), status, tc.want, body)
		}
	}
}

// TestBodyOverCapAnswers413OnEveryRoute posts each JSON route a body
// past MaxBodyBytes, with the excess once as whitespace after a valid
// value and once inside the value: every route answers 413, and the
// same valid value within the cap still succeeds. The QoS route is the
// control; register and the JSON batch read their bodies through
// decodeJSON, whose trailing-data probe hits the cap in the whitespace
// case.
func TestBodyOverCapAnswers413OnEveryRoute(t *testing.T) {
	const limit = 512
	srv, err := NewServer(ServerConfig{Databases: fleetDatabases(t), Logger: quietLogger(), MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	spec := looseSpec(getFixture(t).red)
	if _, err := srv.Registry().Register(DeviceParams{ID: "cap", Database: "red", PRC: 0.5, Initial: spec}); err != nil {
		t.Fatal(err)
	}
	qos := fmt.Sprintf(`{"s_max_ms":%g,"f_min":%g}`, spec.SMaxMs, spec.FMin)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, rt := range []struct {
		name, path string
		ok         int
		// value builds a valid body whose padding string field is pad.
		value func(pad string) string
	}{
		{"register", "/v1/devices", http.StatusCreated, func(pad string) string {
			return fmt.Sprintf(`{"id":"dev%s","database":"red","prc":0.5,"initial":%s}`, pad, qos)
		}},
		{"batch", "/v1/devices:decide-batch", http.StatusOK, func(pad string) string {
			return fmt.Sprintf(`{"events":[{"device":"cap%s","s_max_ms":%g,"f_min":%g}]}`, pad, spec.SMaxMs, spec.FMin)
		}},
		{"qos", "/v1/devices/cap/qos", http.StatusOK, func(pad string) string {
			return qos + pad // the QoS body has no string field; pad after it
		}},
	} {
		for _, tc := range []struct {
			name string
			body string
			want int
		}{
			{"within cap", rt.value(""), rt.ok},
			{"whitespace after the value", rt.value("") + strings.Repeat(" ", limit+1), http.StatusRequestEntityTooLarge},
			{"inside the value", rt.value(strings.Repeat("x", limit+1)), http.StatusRequestEntityTooLarge},
		} {
			status, body, err := postRaw(ts.Client(), ts.URL+rt.path, "application/json", []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.want {
				t.Errorf("%s, %s (%d bytes): status %d, want %d (%s)", rt.name, tc.name, len(tc.body), status, tc.want, body)
			}
		}
	}
}
