package ga

import (
	"sync"
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/rng"
)

// TestEvalAllScoresEachGenomeOnce: whatever the worker count — serial,
// fewer workers than genomes, as many, or more — every genome is
// scored exactly once and its individual lands at its own index.
func TestEvalAllScoresEachGenomeOnce(t *testing.T) {
	space, _ := testProblem(t, 12)
	r := rng.New(19)
	genomes := make([]*mapping.Mapping, 7)
	index := map[*mapping.Mapping]int{}
	for i := range genomes {
		genomes[i] = space.Random(r)
		index[genomes[i]] = i
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		var mu sync.Mutex
		calls := make([]int, len(genomes))
		e := &Engine{Space: space, Eval: func(m *mapping.Mapping) ([]float64, float64, any) {
			mu.Lock()
			calls[index[m]]++
			mu.Unlock()
			return []float64{float64(index[m])}, 0, nil
		}}
		out := e.evalAll(genomes, workers)
		if len(out) != len(genomes) {
			t.Fatalf("workers=%d: %d individuals for %d genomes", workers, len(out), len(genomes))
		}
		for i, ind := range out {
			if ind == nil || ind.M != genomes[i] || ind.Objs[0] != float64(i) {
				t.Fatalf("workers=%d: individual %d is not genome %d's", workers, i, i)
			}
			if calls[i] != 1 {
				t.Errorf("workers=%d: genome %d scored %d times", workers, i, calls[i])
			}
		}
	}
}

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

// TestParetoFrontDedupesByGenome: a genome equal to an earlier front
// member is dropped, while a distinct genome that only shares its hash
// is kept, and the front keeps its order.
func TestParetoFrontDedupesByGenome(t *testing.T) {
	space, _ := testProblem(t, 12)
	r := rng.New(23)
	a, other := space.Random(r), space.Random(r)
	ind := func(m *mapping.Mapping, objs ...float64) *Individual {
		return &Individual{M: m, Objs: objs}
	}
	first := ind(a, 1, 3)
	twin := ind(a.Clone(), 1, 3) // equal genes, another pointer
	clash := ind(collide(t, a), 2, 2)
	last := ind(other, 3, 1)
	pop := &Population{Individuals: []*Individual{first, twin, clash, last}}
	front := pop.ParetoFront()
	want := []*Individual{first, clash, last}
	if len(front) != len(want) {
		t.Fatalf("front has %d members, want %d", len(front), len(want))
	}
	for i := range want {
		if front[i] != want[i] {
			t.Errorf("front[%d] is not the expected member", i)
		}
	}
}
