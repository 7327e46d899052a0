package mapping

import (
	"sync"
	"testing"

	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

// randomMappings draws n valid mappings from the space.
func randomMappings(s *Space, n int, seed int64) []*Mapping {
	r := rng.New(seed)
	ms := make([]*Mapping, n)
	for i := range ms {
		ms[i] = s.Random(r)
	}
	return ms
}

// accelMappings draws n valid mappings that put most tasks on an
// accelerator implementation when the task has one, so several
// circuits crowd onto each PRR.
func accelMappings(s *Space, n int, seed int64) []*Mapping {
	r := rng.New(seed)
	ms := make([]*Mapping, n)
	for i := range ms {
		m := s.Random(r)
		for t := range m.Genes {
			for impl, im := range s.Graph.Tasks[t].Impls {
				pes := s.CompatiblePEs(t, impl)
				if im.BitstreamID >= 0 && len(pes) > 0 && r.Bool(0.9) {
					m.Genes[t].Impl = impl
					m.Genes[t].PE = pes[r.Intn(len(pes))]
					break
				}
			}
		}
		ms[i] = m
	}
	return ms
}

// accelSpace is a 60-task application whose every task type has an
// accelerator implementation (fifteen circuits).
func accelSpace(t *testing.T, seed int64) *Space {
	t.Helper()
	plat := platform.Default()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: seed, NumTasks: 60, AccelProb: 1}, plat)
	if err != nil {
		t.Fatal(err)
	}
	return &Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
}

func TestDRCTotalMatchesDRC(t *testing.T) {
	check := func(s *Space, ms []*Mapping) {
		t.Helper()
		for i, from := range ms {
			for j, to := range ms {
				want := s.DRC(from, to).Total()
				got := s.DRCTotal(from, to)
				if got != want {
					t.Fatalf("%s: DRCTotal(%d,%d) = %v, DRC().Total() = %v (must be bit-identical)", s.Graph.Name, i, j, got, want)
				}
			}
		}
	}
	s := testSpace(t, 30)
	check(s, randomMappings(s, 20, 17))
	// Accelerator-heavy mappings load ten or more new circuits into one
	// PRR, where multiplying the load count by the load time would part
	// from adding one load at a time.
	for seed := int64(0); seed < 40; seed++ {
		s := accelSpace(t, 900+seed)
		check(s, accelMappings(s, 40, seed))
	}
}

func TestDRCMatrixMatchesDirect(t *testing.T) {
	s := testSpace(t, 25)
	ms := randomMappings(s, 15, 23)
	m := NewDRCMatrix(s, ms)
	if m.Len() != len(ms) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(ms))
	}
	for i := range ms {
		if d := m.Total(i, i); d != 0 {
			t.Errorf("Total(%d,%d) = %v, want 0 (nothing moves)", i, i, d)
		}
		for j := range ms {
			want := s.DRC(ms[i], ms[j]).Total()
			if got := m.Total(i, j); got != want {
				t.Fatalf("matrix entry (%d,%d) = %v, direct DRC total = %v", i, j, got, want)
			}
		}
	}
}

func TestDRCCacheMatchesDirect(t *testing.T) {
	s := testSpace(t, 25)
	set := randomMappings(s, 10, 29)
	cache := NewDRCCache(s, set)
	probes := randomMappings(s, 12, 31)
	for i, m := range probes {
		want := s.AvgDRCTo(m, set)
		if got := cache.AvgDRC(m); got != want {
			t.Fatalf("cached AvgDRC(probe %d) = %v, direct = %v", i, got, want)
		}
		// Memoised second call must return the identical value.
		if got := cache.AvgDRC(m); got != want {
			t.Fatalf("memoised AvgDRC(probe %d) = %v, direct = %v", i, got, want)
		}
	}
}

// TestDRCCacheConcurrent exercises the cache from many goroutines so
// `go test -race` can certify the locking; every reader must observe
// the direct value.
func TestDRCCacheConcurrent(t *testing.T) {
	s := testSpace(t, 20)
	set := randomMappings(s, 8, 37)
	cache := NewDRCCache(s, set)
	probes := randomMappings(s, 6, 41)
	want := make([]float64, len(probes))
	for i, m := range probes {
		want[i] = s.AvgDRCTo(m, set)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, m := range probes {
					if got := cache.AvgDRC(m); got != want[i] {
						t.Errorf("concurrent AvgDRC(probe %d) = %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDiffStableAcrossCalls guards the pooled-scratch rewrite of Diff:
// repeated diffs of the same pair must produce identical plans (the
// pool must never leak state between calls).
func TestDiffStableAcrossCalls(t *testing.T) {
	s := testSpace(t, 30)
	ms := randomMappings(s, 8, 43)
	for i, from := range ms {
		for j, to := range ms {
			first := s.Diff(from, to)
			again := s.Diff(from, to)
			if len(first) != len(again) {
				t.Fatalf("diff(%d,%d) length changed across calls: %d vs %d", i, j, len(first), len(again))
			}
			for k := range first {
				if first[k] != again[k] {
					t.Fatalf("diff(%d,%d) action %d changed across calls: %v vs %v", i, j, k, first[k], again[k])
				}
			}
			if i == j && first != nil {
				t.Fatalf("diff(%d,%d) of identical mappings = %v, want nil", i, j, first)
			}
		}
	}
}
