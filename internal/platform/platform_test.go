package platform

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultShape(t *testing.T) {
	p := Default()
	// Paper setup: 5 processor PEs of 3 types, plus 3 PRR slots.
	if got := len(p.ProcessorPEs()); got != 5 {
		t.Errorf("processor PEs = %d, want 5", got)
	}
	if got := len(p.ReconfigurablePEs()); got != 3 {
		t.Errorf("reconfigurable PEs = %d, want 3", got)
	}
	if got := len(p.PRRs); got != 3 {
		t.Errorf("PRRs = %d, want 3", got)
	}
	procTypes := map[int]bool{}
	for _, id := range p.ProcessorPEs() {
		procTypes[p.PEs[id].Type] = true
	}
	if len(procTypes) != 3 {
		t.Errorf("processor PE types = %d, want 3", len(procTypes))
	}
}

func TestDefaultMaskingFactorsVary(t *testing.T) {
	p := Default()
	seen := map[float64]bool{}
	for _, id := range p.ProcessorPEs() {
		seen[p.TypeOf(id).MaskingFactor] = true
	}
	if len(seen) != 3 {
		t.Errorf("distinct masking factors among processor types = %d, want 3", len(seen))
	}
}

func TestTypeOf(t *testing.T) {
	p := Default()
	if p.TypeOf(0).Name != "perf" {
		t.Errorf("TypeOf(0) = %q, want perf", p.TypeOf(0).Name)
	}
	if p.TypeOf(5).Kind != KindReconfigurable {
		t.Errorf("TypeOf(5).Kind = %v, want reconfigurable", p.TypeOf(5).Kind)
	}
}

func TestPEsOfType(t *testing.T) {
	p := Default()
	if got := p.PEsOfType(1); len(got) != 2 {
		t.Errorf("PEsOfType(1) = %v, want 2 PEs", got)
	}
	if got := p.PEsOfType(3); len(got) != 3 {
		t.Errorf("PEsOfType(3) = %v, want 3 PEs", got)
	}
}

func TestMigrationAndBitstreamCosts(t *testing.T) {
	p := Default()
	if got := p.BinaryMigrationMs(800); got != 1.0 {
		t.Errorf("BinaryMigrationMs(800) = %v, want 1.0", got)
	}
	if got := p.BitstreamLoadMs(400); got != 1.0 {
		t.Errorf("BitstreamLoadMs(400) = %v, want 1.0", got)
	}
	// A full PRR bitstream must cost more than a typical binary copy:
	// this ordering drives the accelerator-reconfiguration penalty.
	if p.BitstreamLoadMs(p.PRRs[0].BitstreamKB) <= p.BinaryMigrationMs(64) {
		t.Error("bitstream load should dominate small binary migration")
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Platform)
		wantSub string
	}{
		{"no types", func(p *Platform) { p.Types = nil }, "no PE types"},
		{"no pes", func(p *Platform) { p.PEs = nil }, "no PEs"},
		{"bad interconnect", func(p *Platform) { p.InterconnectKBps = 0 }, "InterconnectKBps"},
		{"sparse pe ids", func(p *Platform) { p.PEs[1].ID = 7 }, "dense"},
		{"unknown type", func(p *Platform) { p.PEs[0].Type = 99 }, "unknown type"},
		{"no local mem", func(p *Platform) { p.PEs[0].LocalMemKB = 0 }, "local memory"},
		{"bad prr ref", func(p *Platform) { p.PEs[5].PRR = 9 }, "unknown PRR"},
		{"processor with prr", func(p *Platform) { p.PEs[0].PRR = 0 }, "PRR = -1"},
		{"sparse prr ids", func(p *Platform) { p.PRRs[1].ID = 5 }, "dense"},
		{"bad bitstream", func(p *Platform) { p.PRRs[0].BitstreamKB = 0 }, "bitstream"},
		{"bad speed", func(p *Platform) { p.Types[0].SpeedFactor = 0 }, "SpeedFactor"},
		{"bad masking", func(p *Platform) { p.Types[0].MaskingFactor = 1 }, "MaskingFactor"},
		{"bad beta", func(p *Platform) { p.Types[0].AgingBeta = -1 }, "AgingBeta"},
		{"bad idle power", func(p *Platform) { p.Types[0].IdlePowerW = -0.1 }, "IdlePowerW"},
		{"bad power factor", func(p *Platform) { p.Types[0].PowerFactor = 0 }, "PowerFactor"},
		{"empty type name", func(p *Platform) { p.Types[0].Name = "" }, "empty name"},
		{"icap missing", func(p *Platform) { p.ICAPKBps = 0 }, "ICAPKBps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken platform")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestJSONRoundTrip: the platform description survives a JSON round
// trip and stays valid.
func TestJSONRoundTrip(t *testing.T) {
	p := Default()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Platform
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || len(q.PEs) != len(p.PEs) || len(q.Types) != len(p.Types) || len(q.PRRs) != len(p.PRRs) {
		t.Errorf("round-trip mismatch: got %+v", q)
	}
	if q.TypeOf(3).MaskingFactor != p.TypeOf(3).MaskingFactor {
		t.Error("round-trip lost masking factor")
	}
}

func TestKindString(t *testing.T) {
	if KindProcessor.String() != "processor" || KindReconfigurable.String() != "reconfigurable" {
		t.Error("Kind.String() mismatch")
	}
	if got := Kind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestLargePlatform(t *testing.T) {
	p := Large()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.ProcessorPEs()); got != 10 {
		t.Errorf("processor PEs = %d, want 10", got)
	}
	if got := len(p.ReconfigurablePEs()); got != 5 {
		t.Errorf("reconfigurable PEs = %d, want 5", got)
	}
	if len(p.PRRs) != 5 {
		t.Errorf("PRRs = %d, want 5", len(p.PRRs))
	}
	// Same type characteristics as Default, so studies isolate size.
	d := Default()
	for i := range d.Types {
		if p.Types[i] != d.Types[i] {
			t.Errorf("type %d differs from Default", i)
		}
	}
}

func TestLargePlatformRunsApps(t *testing.T) {
	// Large platform must carry the same generated apps.
	p := Large()
	for _, id := range p.ReconfigurablePEs() {
		if p.PEs[id].PRR < 0 {
			t.Errorf("accel PE %d lacks PRR", id)
		}
	}
}
