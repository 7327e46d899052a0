package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/runtime"
)

// fuzzBytes hands out a fuzz input in pieces; once it is spent every
// read answers zero.
type fuzzBytes struct{ data []byte }

func (f *fuzzBytes) u8() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzBytes) u32() uint32 {
	return uint32(f.u8())<<24 | uint32(f.u8())<<16 | uint32(f.u8())<<8 | uint32(f.u8())
}

func (f *fuzzBytes) f64() float64 {
	return math.Float64frombits(uint64(f.u32())<<32 | uint64(f.u32()))
}

// int reads a signed field: small sentinels and counts mostly, any
// int32 or a value beyond it sometimes.
func (f *fuzzBytes) int() int {
	switch f.u8() % 4 {
	case 0:
		return -1
	case 1:
		return int(int32(f.u32()))
	case 2:
		return int(f.u32()) << 8
	default:
		return int(f.u8())
	}
}

// slotErrors makes one of each error a batch slot can hold: the wire
// validation errors the edge pre-fills, and every registry error,
// wrapped as the registry wraps it, naming the device where the
// registry does.
var slotErrors = []func(dev string) error{
	func(string) error { return errors.New("device must be non-empty") },
	func(string) error { return QoSSpecJSON{SMaxMs: math.NaN(), FMin: 0.5}.validate() },
	func(string) error { return QoSSpecJSON{SMaxMs: 1, FMin: 2}.validate() },
	func(dev string) error { return fmt.Errorf("%w: %q", ErrNoDevice, dev) },
	func(string) error { return fmt.Errorf("%w: seq %d behind %d", ErrStaleSeq, 3, 7) },
	func(string) error { return fmt.Errorf("%w: %q", ErrNoDatabase, "red") },
	func(dev string) error { return fmt.Errorf("%w: %q", ErrDeviceExists, dev) },
	func(string) error { return fmt.Errorf("%w: candidate v%d vs active v%d", ErrCandidateVersion, 1, 2) },
	func(string) error { return fmt.Errorf("%w: %q", ErrNoCandidate, "red") },
	func(string) error { return ErrNoPrevious },
	func(string) error { return ErrVersionSkew },
	func(string) error { return context.DeadlineExceeded },
	func(string) error { return &http.MaxBytesError{Limit: 1 << 20} },
}

// fuzzOutcomes builds a batch's events and outcomes from a fuzz input:
// errors of every kind, decisions with and without plans (every action
// kind and one out of range), decisions whose plan comes from the
// decide index of db, degraded, replayed and violated outcomes, and
// device IDs at and over the 64 KiB string bound.
func fuzzOutcomes(data []byte, db *NamedDatabase) ([]BatchEvent, []BatchOutcome) {
	src := &fuzzBytes{data: data}
	n := int(src.u8() % 10)
	events := make([]BatchEvent, n)
	outs := make([]BatchOutcome, n)
	for i := range events {
		dev := fmt.Sprintf("dev-%03d", src.u8())
		switch src.u8() % 16 {
		case 0:
			dev = strings.Repeat("d", math.MaxUint16+1+int(src.u8()))
		case 1:
			dev = strings.Repeat("d", math.MaxUint16)
		case 2:
			dev = ""
		}
		events[i] = BatchEvent{Device: dev, Seq: uint64(src.u32())}
		if k := int(src.u8() % 32); k < len(slotErrors) {
			outs[i].Err = slotErrors[k](dev)
			continue
		}
		flags := src.u8()
		d := runtime.Decision{From: src.int(), To: src.int(), Violated: flags&1 != 0}
		out := DecideOutcome{Replayed: flags&2 != 0, Degraded: flags&4 != 0}
		if flags&8 != 0 {
			d.Reconfigured = true
			d.Cost = mapping.ReconfigCost{
				BinaryMigrationMs: src.f64(), BitstreamMs: src.f64(),
				MigratedTasks: src.int(), ReloadedPRRs: src.int(),
			}
			plan := make([]mapping.Action, src.u8()%8)
			for k := range plan {
				kind := mapping.ActionKind(src.u8() % 5) // 4 is out of range
				if kind == 4 && src.u8()%2 == 0 {
					kind = -1
				}
				plan[k] = mapping.Action{Kind: kind, Task: src.int(), PE: src.int(), PRR: src.int(),
					Bitstream: src.int(), CostMs: src.f64()}
			}
			if len(plan) > 0 {
				d.Plan = plan
			}
		}
		if flags&16 != 0 {
			// The registry's form: no plan, the index that decided it.
			n := db.index.Len()
			d.From, d.To, d.Plan = int(src.u8())%n, int(src.u8())%n, nil
			out.Index = db.index
		}
		out.Decision = d
		outs[i].Out = out
	}
	return events, outs
}

// checkOutcomeEncoding requires AppendBatchOutcomes to write the bytes
// AppendBatchResponse writes for the JSON path's results of the same
// outcomes, or both to fail with the same error text. The reference
// sees every plan materialised: an outcome planned from db's index
// carries Space.Transition's plan of the same pair instead, so a plan
// written from the index must equal it action for action. The JSON
// path's own results from the unmaterialised outcomes must encode
// alike.
func checkOutcomeEncoding(t *testing.T, events []BatchEvent, outs []BatchOutcome, db *NamedDatabase) {
	t.Helper()
	ref := make([]BatchOutcome, len(outs))
	for i, o := range outs {
		d := &o.Out.Decision
		if o.Out.Index != nil && d.Reconfigured {
			if o.Out.Index != db.index {
				t.Fatalf("outcome %d planned from an index other than the fixture's", i)
			}
			_, d.Plan = db.Space.Transition(db.DB.Points[d.From].M, db.DB.Points[d.To].M)
		}
		o.Out.Index = nil
		ref[i] = o
	}
	got, gotErr := AppendBatchOutcomes(nil, events, outs)
	want, wantErr := AppendBatchResponse(nil, new(batchScratch).jsonResults(events, ref))
	viaJSON, viaJSONErr := AppendBatchResponse(nil, new(batchScratch).jsonResults(events, outs))
	switch {
	case (gotErr == nil) != (wantErr == nil) || (viaJSONErr == nil) != (wantErr == nil):
		t.Fatalf("direct encoder error %v, JSON path error %v, reference error %v", gotErr, viaJSONErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() || viaJSONErr.Error() != wantErr.Error() {
			t.Fatalf("direct encoder error %q, JSON path error %q, reference error %q", gotErr, viaJSONErr, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("direct encoding differs from the reference:\n got  %x\n want %x", got, want)
	case !bytes.Equal(viaJSON, want):
		t.Fatalf("JSON path encoding differs from the reference:\n got  %x\n want %x", viaJSON, want)
	}
}

// outcomeDB is the fixture's database with its decide index, for
// outcomes planned from an index.
func outcomeDB(t testing.TB) *NamedDatabase {
	t.Helper()
	db := fleetDatabases(t)[0]
	if err := db.build(); err != nil {
		t.Fatal(err)
	}
	return &db
}

// TestBatchOutcomeEncodingCases runs the direct encoder against the
// reference on hand-built batches: every error, a planful decision
// with every action kind, degraded, replayed and violated stays, an
// out-of-range action kind, and device IDs over the string bound.
func TestBatchOutcomeEncodingCases(t *testing.T) {
	var events []BatchEvent
	var outs []BatchOutcome
	for k, mk := range slotErrors {
		events = append(events, BatchEvent{Device: "dev-err", Seq: uint64(k)})
		outs = append(outs, BatchOutcome{Err: mk("dev-err")})
	}
	plan := []mapping.Action{
		{Kind: mapping.ActionLoadBitstream, Task: -1, PE: 3, PRR: 0, Bitstream: 9, CostMs: 2.25},
		{Kind: mapping.ActionCopyBinary, Task: 4, PE: 1, PRR: -1, Bitstream: -1, CostMs: 10.25},
		{Kind: mapping.ActionSetCLR, Task: 4, PE: -1, PRR: -1, Bitstream: -1},
		{Kind: mapping.ActionReorder, Task: 5, PE: -1, PRR: -1, Bitstream: -1},
	}
	decided := []DecideOutcome{
		{Decision: runtime.Decision{From: 3, To: 7, Reconfigured: true, Plan: plan,
			Cost: mapping.ReconfigCost{BinaryMigrationMs: 10.25, BitstreamMs: 2.25, MigratedTasks: 2, ReloadedPRRs: 1}}},
		{Decision: runtime.Decision{From: 7, To: 7}, Degraded: true},
		{Decision: runtime.Decision{From: 7, To: 7}, Replayed: true},
		{Decision: runtime.Decision{From: 7, To: 2, Violated: true, Reconfigured: true,
			Cost: mapping.ReconfigCost{BinaryMigrationMs: math.Copysign(0, -1)}}},
	}
	// The registry's form: reconfigurations planned from the index
	// that decided them, fresh and replayed, one with nothing to plan.
	db := outcomeDB(t)
	for to := 1; to < db.index.Len(); to++ {
		if len(db.index.Plan(0, to)) == 0 {
			continue
		}
		d := runtime.Decision{From: 0, To: to, Reconfigured: true}
		decided = append(decided,
			DecideOutcome{Decision: d, Index: db.index},
			DecideOutcome{Decision: d, Index: db.index, Replayed: true})
		break
	}
	decided = append(decided, DecideOutcome{Decision: runtime.Decision{From: 2, To: 2, Reconfigured: true}, Index: db.index})
	for k, out := range decided {
		events = append(events, BatchEvent{Device: fmt.Sprintf("dev-%d", k), Seq: uint64(100 + k)})
		outs = append(outs, BatchOutcome{Out: out})
	}
	checkOutcomeEncoding(t, events, outs, db)

	long := strings.Repeat("d", math.MaxUint16+1)
	checkOutcomeEncoding(t, []BatchEvent{{Device: long}}, []BatchOutcome{{Out: decided[1]}}, db)
	checkOutcomeEncoding(t, []BatchEvent{{Device: long}}, []BatchOutcome{{Err: fmt.Errorf("%w: %q", ErrNoDevice, long)}}, db)
	for _, kind := range []mapping.ActionKind{4, -1} {
		bad := decided[0]
		bad.Decision.Plan = append(append([]mapping.Action(nil), plan...), mapping.Action{Kind: kind})
		checkOutcomeEncoding(t, events[:1], []BatchOutcome{{Out: bad}}, db)
	}
	if _, err := AppendBatchOutcomes(nil, events, outs[1:]); !errors.Is(err, ErrBinCodec) {
		t.Errorf("mismatched lengths: want ErrBinCodec, got %v", err)
	}
}

// FuzzBatchOutcomeEncoding holds the direct outcome encoder to the
// reference path, decisionJSONInto then AppendBatchResponse, on
// batches built from the fuzz input.
func FuzzBatchOutcomeEncoding(f *testing.F) {
	// One decision each: violated, degraded, replayed (see fuzzOutcomes
	// for the byte layout).
	f.Add([]byte{1, 7, 3, 0, 0, 0, 1, 31, 1, 3, 5, 3, 5})
	f.Add([]byte{1, 7, 3, 0, 0, 0, 2, 31, 4, 3, 5, 3, 5})
	f.Add([]byte{1, 7, 3, 0, 0, 0, 3, 31, 2, 3, 5, 3, 6})
	f.Add([]byte{})
	f.Add([]byte{9, 1, 3, 0, 0, 0, 1, 31, 8, 0, 0})
	f.Add([]byte{4, 7, 0, 9, 0, 0, 0, 2, 4})
	f.Add(bytes.Repeat([]byte{5, 200, 9, 1, 2, 3, 4, 31, 15, 3, 1, 2, 7, 4, 9}, 12))
	f.Add(bytes.Repeat([]byte{3, 17, 4, 0, 0, 0, 0, 30, 8, 1, 1, 0, 0, 0, 7, 4, 1}, 9))
	// Planned from the index: fresh, then replayed.
	indexed := append([]byte{1, 7, 3, 0, 0, 0, 1, 31, 24, 3, 5, 3, 6}, make([]byte, 16)...)
	f.Add(append(indexed, 3, 2, 3, 1, 0, 4, 9))
	indexed[8] = 26
	f.Add(append(indexed, 3, 2, 3, 1, 0, 9, 4))
	db := outcomeDB(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, outs := fuzzOutcomes(data, db)
		checkOutcomeEncoding(t, events, outs, db)
	})
}
