package mapping

import "testing"

// TestPairKernelMatchesReference holds the pair kernel to the
// reference dRC of drc_ref_test.go in both directions: one gene walk
// must give dRC(a, b) and dRC(b, a), each bit for bit, for every
// ordered pair of every reference case.
func TestPairKernelMatchesReference(t *testing.T) {
	for _, c := range drcRefCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, ms := c.space, c.maps
			sides := s.prepareAll(ms)
			for i, a := range ms {
				for j, b := range ms {
					_, _, wantAB := refDRCTotal(s, a, b)
					_, _, wantBA := refDRCTotal(s, b, a)
					ab, ba := s.pairDRC(a, b, &sides[i], &sides[j])
					if ab != wantAB || ba != wantBA {
						t.Fatalf("pair (%d,%d): pairDRC = (%v, %v), reference (%v, %v)", i, j, ab, ba, wantAB, wantBA)
					}
				}
			}
		})
	}
}

// TestPairKernelAllocations pins the pair kernel: the average over a
// prepared stored set — a DRCCache miss without its memo insert —
// allocates nothing once warm.
func TestPairKernelAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	s := accelSpace(t, 68)
	ms := accelMappings(s, 12, 69)
	set, probe := ms[:10], ms[10]
	sides := s.prepareAll(set)
	s.avgDRC(probe, set, sides)
	if a := testing.AllocsPerRun(200, func() { s.avgDRC(probe, set, sides) }); a != 0 {
		t.Errorf("avgDRC over a prepared set allocates %v times per call, want 0", a)
	}
}
