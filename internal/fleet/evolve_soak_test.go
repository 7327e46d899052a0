package fleet

// TestEvolveSoak is the CI swap-soak gate: concurrent fleet traffic is
// driven through a full Continuous-ReD cycle — propose, shadow-serve,
// cut over, roll back — with at-least-once delivery (seeded retries),
// and the run must show:
//
//  1. no device lost: every registered device survives the cycle with
//     its full decision count;
//  2. no sequence answered twice: a retried sequence number is always
//     answered from the replay cache, byte-identical to the original,
//     and never re-decided — across the cutover included;
//  3. pre-swap byte-identity: every decision made before the cutover
//     (shadow window included) equals the decision a frozen-database
//     reference run makes on the same seeds.
//
// When the SOAK_ARTIFACT_DIR environment variable is set, the decision
// journal and the evolve status diff are written there as JSON
// (evolve-journal.json, evolve-diff.json) for CI to upload.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clrdse/internal/rng"
	"clrdse/internal/runtime"
)

func TestEvolveSoak(t *testing.T) {
	f := getFixture(t)
	const (
		devices = 12
		preN    = 10 // events before the candidate is proposed
		shadowN = 10 // events inside the shadow window
		postN   = 8  // events served by the new version
		tailN   = 6  // events after rollback
		total   = preN + shadowN + postN + tailN
	)
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range scripts {
		scripts[d] = deviceScript(f.red, int64(7000+d), total)
	}
	boot := looseSpec(f.red)
	params := func(d int) DeviceParams {
		return DeviceParams{
			ID: deviceID(d), Database: "red", PRC: 0.5,
			Trigger: runtime.TriggerOnViolation, Gamma: 0.8, Initial: boot,
		}
	}

	// Frozen-database reference, serial: the byte-identity oracle for
	// everything decided before the cutover.
	ref, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := make([][]string, devices)
	for d := 0; d < devices; d++ {
		if _, err := ref.Register(params(d)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < preN+shadowN; i++ {
			out, err := ref.DecideCtx(context.Background(), deviceID(d), uint64(i+1), scripts[d][i])
			if err != nil {
				t.Fatal(err)
			}
			refKeys[d] = append(refKeys[d], decisionKey(t, out.Decision))
		}
	}

	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		if _, err := reg.Register(params(d)); err != nil {
			t.Fatal(err)
		}
	}

	// keys[d][seq-1] is the decision each sequence number was first
	// answered with; a later answer for the same seq must match it.
	keys := make([][]string, devices)
	for d := range keys {
		keys[d] = make([]string, total)
	}
	// drivePhase streams events [from, to) for every device
	// concurrently, retrying a seeded subset of sequence numbers to
	// exercise at-least-once delivery.
	drivePhase := func(from, to int) {
		t.Helper()
		var wg sync.WaitGroup
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				retry := rng.New(int64(9000*from + d))
				for i := from; i < to; i++ {
					seq := uint64(i + 1)
					out, err := reg.DecideCtx(context.Background(), deviceID(d), seq, scripts[d][i])
					if err != nil {
						t.Errorf("%s seq %d: %v", deviceID(d), seq, err)
						return
					}
					if out.Replayed {
						t.Errorf("%s seq %d: fresh sequence answered from the replay cache", deviceID(d), seq)
					}
					keys[d][i] = decisionKey(t, out.Decision)
					if retry.Bool(0.3) {
						dup, err := reg.DecideCtx(context.Background(), deviceID(d), seq, scripts[d][i])
						if err != nil {
							t.Errorf("%s seq %d retry: %v", deviceID(d), seq, err)
							return
						}
						if !dup.Replayed {
							t.Errorf("%s seq %d: retry was re-decided (answered twice)", deviceID(d), seq)
						}
						if got := decisionKey(t, dup.Decision); got != keys[d][i] {
							t.Errorf("%s seq %d: retry diverged:\n  got  %s\n  want %s", deviceID(d), seq, got, keys[d][i])
						}
					}
				}
			}(d)
		}
		wg.Wait()
	}

	drivePhase(0, preN)
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	drivePhase(preN, preN+shadowN)

	// Pre-swap byte-identity against the frozen reference.
	for d := 0; d < devices; d++ {
		for i := 0; i < preN+shadowN; i++ {
			if keys[d][i] != refKeys[d][i] {
				t.Fatalf("%s seq %d: pre-swap decision diverged from frozen reference:\n  got  %s\n  want %s",
					deviceID(d), i+1, keys[d][i], refKeys[d][i])
			}
		}
	}
	preStatus, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(devices * shadowN); preStatus.ShadowEvents != want {
		t.Errorf("shadow window saw %d events, want %d", preStatus.ShadowEvents, want)
	}

	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	// Exactly-once across the swap: every device's last pre-swap
	// sequence replays byte-identically on the new version.
	for d := 0; d < devices; d++ {
		out, err := reg.DecideCtx(context.Background(), deviceID(d), preN+shadowN, scripts[d][preN+shadowN-1])
		if err != nil {
			t.Fatal(err)
		}
		if !out.Replayed {
			t.Errorf("%s: pre-swap retry re-decided after cutover", deviceID(d))
		}
		if got := decisionKey(t, out.Decision); got != keys[d][preN+shadowN-1] {
			t.Errorf("%s: pre-swap replay changed across cutover", deviceID(d))
		}
	}
	drivePhase(preN+shadowN, preN+shadowN+postN)

	if err := reg.RollbackDatabase("red"); err != nil {
		t.Fatal(err)
	}
	drivePhase(preN+shadowN+postN, total)

	// No device lost, none degraded, full decision counts.
	if reg.Len() != devices {
		t.Errorf("fleet holds %d devices after the swap cycle, want %d", reg.Len(), devices)
	}
	for d := 0; d < devices; d++ {
		info, err := reg.Get(deviceID(d))
		if err != nil {
			t.Fatalf("%s lost across the swap cycle: %v", deviceID(d), err)
		}
		if info.Stats.Decisions != total {
			t.Errorf("%s decided %d events, want %d", deviceID(d), info.Stats.Decisions, total)
		}
		if info.Stats.Degraded != 0 {
			t.Errorf("%s: %d degraded answers in a fault-free soak", deviceID(d), info.Stats.Degraded)
		}
	}
	// The journal's version stamps match the phase structure: v1
	// exactly for the post-cutover phase.
	for d := 0; d < devices; d++ {
		for _, e := range reg.Decisions(deviceID(d), 0) {
			want := uint64(0)
			if int(e.Seq) > preN+shadowN && int(e.Seq) <= preN+shadowN+postN {
				want = 1
			}
			if e.DBVersion != want {
				t.Errorf("%s seq %d journaled at v%d, want v%d", deviceID(d), e.Seq, e.DBVersion, want)
			}
		}
	}
	st, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveVersion != 0 || st.HasCandidate || st.HasPrevious {
		t.Errorf("cohort did not return to the pre-swap version state: %+v", st)
	}

	dumpEvolveArtifacts(t, reg, preStatus)
}

func deviceID(d int) string {
	return "soak-" + string(rune('a'+d%26)) + string(rune('0'+d/26))
}

// dumpEvolveArtifacts writes the decision journal and the evolve diff
// into SOAK_ARTIFACT_DIR (when set) so CI can attach them to the run.
// The fleet package cannot import fleettest, whose SaveArtifact the
// other soaks share.
func dumpEvolveArtifacts(t *testing.T, reg *Registry, shadow EvolveStatus) {
	dir := os.Getenv("SOAK_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	diff := struct {
		ShadowWindow EvolveStatus   `json:"shadow_window"`
		Final        []EvolveStatus `json:"final"`
	}{ShadowWindow: shadow, Final: reg.EvolveStatuses()}
	for name, v := range map[string]any{"evolve-journal.json": reg.Decisions("", 0), "evolve-diff.json": diff} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
		}
		if err != nil {
			t.Errorf("writing %s: %v", name, err)
		}
	}
}
