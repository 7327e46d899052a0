package dse

import (
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/rng"
	"clrdse/internal/schedule"
)

// collide returns a genome whose genes differ from m's but whose Hash
// equals m's: m with its first gene's PE moved and its last gene's
// priority chosen to cancel the difference. Mapping.Hash folds that
// priority in last, as f(state ^ prio) with f a bijection (a multiply
// by an odd constant, then an xor-shift by 32 that is its own
// inverse), so the priority can be solved for.
func collide(t *testing.T, m *mapping.Mapping) *mapping.Mapping {
	t.Helper()
	const k = 0x9e3779b97f4a7c15
	kInv := uint64(k)
	for i := 0; i < 5; i++ { // Newton's iteration for k's inverse mod 2^64
		kInv *= 2 - k*kInv
	}
	fInv := func(h uint64) uint64 { return (h ^ h>>32) * kInv }
	last := len(m.Genes) - 1
	c := m.Clone()
	c.Genes[0].PE++
	c.Genes[last].Prio = 0
	c.Genes[last].Prio = int(fInv(c.Hash()) ^ fInv(m.Hash()))
	if c.Hash() != m.Hash() || c.Equal(m) {
		t.Fatal("collide: no distinct genome with an equal hash; Mapping.Hash changed")
	}
	return c
}

// TestAddExtrasDedupesByGenome: ReD skips a candidate whose genome is
// already stored, keeps one that only shares a stored genome's hash,
// and still applies the seed-distance threshold and the per-seed cap.
func TestAddExtrasDedupesByGenome(t *testing.T) {
	p := testProblem(t, 12, false)
	r := rng.New(29)
	stored := p.Space.Random(r)
	db := &Database{Name: "ReD", Points: []*DesignPoint{{ID: 0, M: stored}}}
	var seen mapping.Memo[struct{}]
	seen.Add(stored.Hash(), stored, struct{}{})
	cand := func(m *mapping.Mapping, avg float64) redCandidate {
		return redCandidate{M: m, res: &schedule.Summary{}, avgDRC: avg}
	}
	clash := collide(t, stored)
	far, spare := p.Space.Random(r), p.Space.Random(r)
	db.addExtras(&seen, []redCandidate{
		cand(stored.Clone(), 1), // already stored
		cand(clash, 2),          // same hash, other genes: kept
		cand(far, 10),           // as far as the seed: dropped
		cand(clash.Clone(), 3),  // now stored
		cand(spare, 4),          // kept, reaching the cap
		cand(p.Space.Random(r), 5),
	}, 10, 2)
	if db.Len() != 3 || db.Points[1].M != clash || db.Points[2].M != spare {
		t.Fatalf("stored %d points; want the stored one, the hash twin and the next candidate", db.Len())
	}
	for i, pt := range db.Points[1:] {
		if pt.ID != i+1 || !pt.FromReD {
			t.Errorf("extra %d: ID %d FromReD %v", i, pt.ID, pt.FromReD)
		}
	}
}
