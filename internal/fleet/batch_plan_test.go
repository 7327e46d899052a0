package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clrdse/internal/dse"
	"clrdse/internal/runtime"
)

// TestBatchDecideAllocations pins the batch decide path's heap work:
// the registry's batch decide plus the CLRB encode of its answer
// (AppendDecideBatch, the batch endpoint's binary path), in
// serve-batch's shape (64 devices × 4 events a call, half of them
// AuRA, every event shadow-scored against a candidate), allocate at
// most 2 objects per event once warm. What remains is the journal
// entry, one per event, and a few per-batch constants; plans are
// written into the response from the deciding index, stage spans reuse
// their end closures and shard groups run on parked workers.
func TestBatchDecideAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	const devices, perDevice = 64, 4
	ids := make([]string, devices)
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range ids {
		ids[d] = fmt.Sprintf("alloc-%02d", d)
		p := DeviceParams{ID: ids[d], Database: "red", PRC: 0.5, Trigger: runtime.TriggerAlways, Initial: looseSpec(f.red)}
		if d%2 == 1 {
			p.Gamma = 0.8
		}
		if _, err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
		scripts[d] = deviceScript(f.red, int64(300+d), 64)
	}
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	events := make([]BatchEvent, devices*perDevice)
	outs := make([]BatchOutcome, len(events))
	var buf []byte
	call, planned := 0, 0
	batch := func() {
		for k := 0; k < perDevice; k++ {
			n := call*perDevice + k
			for d := range ids {
				events[k*devices+d] = BatchEvent{Device: ids[d], Seq: uint64(n + 1), Spec: scripts[d][n%len(scripts[d])]}
			}
		}
		clear(outs)
		if buf, err = reg.AppendDecideBatch(context.Background(), buf[:0], events, outs); err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if o := &outs[i]; o.Err != nil || o.Out.Replayed || o.Out.Degraded {
				t.Fatalf("event %d: %+v, %v; want a fresh decision", i, o.Out, o.Err)
			} else if o.Out.Decision.Reconfigured && o.Out.Decision.Plan == nil && o.Out.Index != nil {
				planned++
			}
		}
		call++
	}
	// Warm up: label contexts, pooled traces, parked workers, scratch.
	for i := 0; i < 4; i++ {
		batch()
	}
	perEvent := testing.AllocsPerRun(20, batch) / float64(len(events))
	t.Logf("%.3f allocations per event", perEvent)
	if perEvent > 2 {
		t.Errorf("batch decide plus CLRB encode allocates %.3f objects per event, want at most 2", perEvent)
	}
	if planned == 0 {
		t.Error("no reconfiguration was planned from its index; the pin measured nothing")
	}
}

// reversedDB returns db's points in reverse order, IDs renumbered and
// stamped with version v: the same configurations under other point
// IDs, so a transition planned against the wrong version shows.
func reversedDB(db *dse.Database, v uint64) *dse.Database {
	cp := *db
	cp.Version = v
	cp.Points = make([]*dse.DesignPoint, len(db.Points))
	for i, p := range db.Points {
		q := *p
		q.ID = len(db.Points) - 1 - i
		cp.Points[q.ID] = &q
	}
	return &cp
}

// postBatchBin serves one binary batch request through h and returns
// the response body.
func postBatchBin(t *testing.T, h http.Handler, events []BatchEventJSON) []byte {
	t.Helper()
	body, err := AppendBatchRequest(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/devices:decide-batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", BinContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestReplayAfterCutoverKeepsDecidingPlan pins where a replayed
// answer's plan comes from. The replay cache keeps the decision
// without its plan, plus the decide index it was made on; a retry
// after a cutover — once the device itself has moved to the new
// version — must answer the original bytes, plan included, planned
// from the version that decided it, and a handoff bundle taken then
// must carry that plan too.
func TestReplayAfterCutoverKeepsDecidingPlan(t *testing.T) {
	f := getFixture(t)
	srv, err := NewServer(ServerConfig{Databases: fleetDatabases(t), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	reg, h := srv.Registry(), srv.Handler()
	if _, err := reg.Register(DeviceParams{ID: "swap", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerAlways, Gamma: 0.8, Initial: looseSpec(f.red)}); err != nil {
		t.Fatal(err)
	}
	var ev BatchEventJSON
	var orig []byte
	var dec *DecisionJSON
	for i, spec := range deviceScript(f.red, 91, 200) {
		ev = BatchEventJSON{Device: "swap", Seq: uint64(i + 1), QoSSpecJSON: QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin}}
		orig = postBatchBin(t, h, []BatchEventJSON{ev})
		res, err := DecodeBatchResponse(orig, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := res[0].Decision; d != nil && d.Reconfigured && len(d.Plan) > 0 {
			dec = d
			break
		}
	}
	if dec == nil {
		t.Fatal("no reconfiguration with a plan in the script")
	}
	_, want := f.problem.Space.Transition(f.red.Points[dec.From].M, f.red.Points[dec.To].M)
	checkPlan := func(where string, got []ActionJSON) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: plan of %d actions, the deciding version plans %d", where, len(got), len(want))
		}
		for k := range want {
			if got[k] != actionJSON(want[k]) {
				t.Fatalf("%s: action %d is %+v, the deciding version plans %+v", where, k, got[k], actionJSON(want[k]))
			}
		}
	}
	checkPlan("original answer", dec.Plan)

	if err := reg.ProposeDatabase("red", reversedDB(f.red, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	// The export moves the device onto version 1 and leaves its replay
	// cache as it was.
	st, err := reg.ExportDevice("swap")
	if err != nil {
		t.Fatal(err)
	}
	if st.DBVersion != 1 || st.LastDec == nil || st.LastSeq != ev.Seq {
		t.Fatalf("bundle at v%d with cache (seq %d, %v), want v1 with seq %d cached", st.DBVersion, st.LastSeq, st.LastDec, ev.Seq)
	}
	var bundlePlan []ActionJSON
	for _, a := range st.LastDec.Plan {
		bundlePlan = append(bundlePlan, actionJSON(a))
	}
	checkPlan("handoff bundle", bundlePlan)

	again := postBatchBin(t, h, []BatchEventJSON{ev})
	if !bytes.Equal(again, orig) {
		t.Fatalf("retry after the cutover answered other bytes:\n got  %x\n want %x", again, orig)
	}
	if info, err := reg.Get("swap"); err != nil || info.Stats.Replays != 1 {
		t.Fatalf("device stats %+v, %v; want the retry answered from the replay cache", info, err)
	}
}

// TestBatchStallStaysInItsShard pins the batch path's isolation: a
// DecideHook holds two devices past the call's deadline, and every
// device in a shard neither of them sits in still answers undegraded.
// The hook degrades any decision it sees after the deadline, so
// deciding the other shards behind a held device would show.
func TestBatchStallStaysInItsShard(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	const devices = 32
	ids := make([]string, devices)
	for d := range ids {
		ids[d] = fmt.Sprintf("iso-%02d", d)
		if _, err := reg.Register(DeviceParams{ID: ids[d], Database: "red", PRC: 0.5,
			Trigger: runtime.TriggerAlways, Initial: looseSpec(f.red)}); err != nil {
			t.Fatal(err)
		}
	}
	held := map[string]bool{ids[0]: true, ids[devices-1]: true}
	heldShards := map[*shard]bool{reg.shardFor(ids[0]): true, reg.shardFor(ids[devices-1]): true}
	reg.SetDecideHook(func(ctx context.Context, id string, _ uint64) error {
		if held[id] {
			<-ctx.Done()
		}
		return ctx.Err()
	})
	var events []BatchEvent
	for seq := uint64(1); seq <= 2; seq++ {
		for d, id := range ids {
			events = append(events, BatchEvent{Device: id, Seq: seq, Spec: deviceScript(f.red, int64(d), 2)[seq-1]})
		}
	}
	results := make([]BatchOutcome, len(events))
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	reg.DecideBatch(ctx, events, results)

	free := 0
	for i, ev := range events {
		r := results[i]
		switch {
		case held[ev.Device]:
			if r.Err != nil || !r.Out.Degraded {
				t.Errorf("held device %s seq %d: %+v, %v; want a degraded answer", ev.Device, ev.Seq, r.Out, r.Err)
			}
		case !heldShards[reg.shardFor(ev.Device)]:
			free++
			if r.Err != nil || r.Out.Degraded {
				t.Errorf("device %s seq %d, in a shard nothing held: %+v, %v; want an undegraded decision", ev.Device, ev.Seq, r.Out, r.Err)
			}
		}
	}
	if free == 0 {
		t.Fatal("every device shares a shard with a held one; the pin checks nothing")
	}
}
