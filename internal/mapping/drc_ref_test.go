package mapping

// The reference dRC kernels and the property tests that hold the
// shared resident-set code to them.
//
// refDRCTotal and refResident are DRCTotal as it stood before the
// bitset resident sets: per-call work lists of distinct circuits per
// PRR, one load added at a time. refAvgDRCTo is AvgDRCTo over them, and
// refDRCCounts is the map-based DRC's migration and reload counts.
// Their code is kept as it was. Once DRCCache, DRCMatrix and AvgDRCTo
// share one resident-set helper, comparing them with each other would
// compare the new code with itself; these references do not.

import (
	"fmt"
	"sort"
	"testing"

	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

func refContains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// refResident lists, per PRR index, the distinct circuits m demands.
func refResident(s *Space, m *Mapping) [][]int {
	res := make([][]int, len(s.Platform.PRRs))
	for t := range m.Genes {
		g := &m.Genes[t]
		im := &s.Graph.Tasks[t].Impls[g.Impl]
		if im.BitstreamID < 0 {
			continue
		}
		prr := s.Platform.PEs[g.PE].PRR
		if prr >= 0 && !refContains(res[prr], im.BitstreamID) {
			res[prr] = append(res[prr], im.BitstreamID)
		}
	}
	return res
}

// refDRCTotal returns the binary and bitstream terms of dRC and their
// sum, in DRCTotal's summation order.
func refDRCTotal(s *Space, from, to *Mapping) (binMs, bitMs, total float64) {
	for t := range to.Genes {
		gf, gt := from.Genes[t], to.Genes[t]
		if gf.PE == gt.PE && gf.Impl == gt.Impl {
			continue
		}
		im := &s.Graph.Tasks[t].Impls[gt.Impl]
		if im.BitstreamID < 0 {
			binMs += s.Platform.BinaryMigrationMs(im.BinaryKB)
		}
	}
	if len(s.Platform.PRRs) == 0 {
		return binMs, 0, binMs
	}
	rf, rt := refResident(s, from), refResident(s, to)
	for prr := range s.Platform.PRRs {
		loadMs := s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB)
		for _, bs := range rt[prr] {
			if !refContains(rf[prr], bs) {
				bitMs += loadMs
			}
		}
	}
	return binMs, bitMs, binMs + bitMs
}

func refAvgDRCTo(s *Space, m *Mapping, set []*Mapping) float64 {
	if len(set) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range set {
		_, _, there := refDRCTotal(s, m, o)
		_, _, back := refDRCTotal(s, o, m)
		sum += there + back
	}
	return sum / float64(2*len(set))
}

// refDRCCounts returns the map-based DRC's migrated-task and
// reloaded-PRR counts.
func refDRCCounts(s *Space, from, to *Mapping) (migrated, reloaded int) {
	for t := range to.Genes {
		if from.Genes[t].PE != to.Genes[t].PE || from.Genes[t].Impl != to.Genes[t].Impl {
			migrated++
		}
	}
	resident := func(m *Mapping) []map[int]bool {
		res := make([]map[int]bool, len(s.Platform.PRRs))
		for i := range res {
			res[i] = map[int]bool{}
		}
		for t, g := range m.Genes {
			im := &s.Graph.Tasks[t].Impls[g.Impl]
			if im.BitstreamID >= 0 && s.Platform.PEs[g.PE].PRR >= 0 {
				res[s.Platform.PEs[g.PE].PRR][im.BitstreamID] = true
			}
		}
		return res
	}
	fr, tr := resident(from), resident(to)
	for prr := range s.Platform.PRRs {
		for bs := range tr[prr] {
			if !fr[prr][bs] {
				reloaded++
			}
		}
	}
	return migrated, reloaded
}

// refLoads lists the (PRR, circuit) loads of a transition in Diff's
// order: PRR by PRR, ascending circuit ID within each.
func refLoads(s *Space, from, to *Mapping) [][2]int {
	rf, rt := refResident(s, from), refResident(s, to)
	var out [][2]int
	for prr := range s.Platform.PRRs {
		var ids []int
		for _, bs := range rt[prr] {
			if !refContains(rf[prr], bs) {
				ids = append(ids, bs)
			}
		}
		sort.Ints(ids)
		for _, bs := range ids {
			out = append(out, [2]int{prr, bs})
		}
	}
	return out
}

// drcRefCase is one space with the mappings its kernels are compared
// over.
type drcRefCase struct {
	name  string
	space *Space
	maps  []*Mapping
}

func drcRefCases(t *testing.T) []drcRefCase {
	t.Helper()
	cat := relmodel.DefaultCatalogue()
	var cases []drcRefCase
	s := testSpace(t, 30)
	cases = append(cases, drcRefCase{"default", s, randomMappings(s, 16, 51)})
	s = accelSpace(t, 52)
	cases = append(cases, drcRefCase{"accelerator-heavy", s, accelMappings(s, 16, 53)})

	// Circuit IDs spread far past 63 span several bitset words.
	s = accelSpace(t, 54)
	for ti := range s.Graph.Tasks {
		for i := range s.Graph.Tasks[ti].Impls {
			if im := &s.Graph.Tasks[ti].Impls[i]; im.BitstreamID >= 0 {
				im.BitstreamID = 61*im.BitstreamID + 3
			}
		}
	}
	cases = append(cases, drcRefCase{"bitstreams-above-63", s, accelMappings(s, 16, 55)})

	// The default platform without its PRR-backed slots.
	def := platform.Default()
	noPRR := &platform.Platform{Name: "default-no-prr", Types: def.Types,
		InterconnectKBps: def.InterconnectKBps, ICAPKBps: def.ICAPKBps}
	for _, pe := range def.PEs {
		if pe.PRR < 0 {
			pe.ID = len(noPRR.PEs)
			noPRR.PEs = append(noPRR.PEs, pe)
		}
	}
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 56, NumTasks: 30}, def)
	if err != nil {
		t.Fatal(err)
	}
	s = &Space{Graph: g, Platform: noPRR, Catalogue: cat}
	cases = append(cases, drcRefCase{"no-prr", s, randomMappings(s, 16, 57)})

	large := platform.Large()
	g, err = taskgraph.Generate(taskgraph.GenParams{Seed: 58, NumTasks: 50, AccelProb: 1}, large)
	if err != nil {
		t.Fatal(err)
	}
	s = &Space{Graph: g, Platform: large, Catalogue: cat}
	cases = append(cases, drcRefCase{"large-platform", s, accelMappings(s, 16, 59)})
	return cases
}

// TestDRCKernelsMatchReference holds every dRC path — DRCTotal, DRC,
// Diff's loads, DRCMatrix, AvgDRCTo and DRCCache — to the reference
// kernels bit for bit.
func TestDRCKernelsMatchReference(t *testing.T) {
	for _, c := range drcRefCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, ms := c.space, c.maps
			mat := NewDRCMatrix(s, ms)
			for i, from := range ms {
				for j, to := range ms {
					bin, bit, total := refDRCTotal(s, from, to)
					where := fmt.Sprintf("pair (%d,%d)", i, j)
					if got := s.DRCTotal(from, to); got != total {
						t.Fatalf("%s: DRCTotal = %v, reference %v", where, got, total)
					}
					if i != j {
						if got := mat.Total(i, j); got != total {
							t.Fatalf("%s: matrix total = %v, reference %v", where, got, total)
						}
					}
					c := s.DRC(from, to)
					migrated, reloaded := refDRCCounts(s, from, to)
					if c.BinaryMigrationMs != bin || c.BitstreamMs != bit || c.Total() != total ||
						c.MigratedTasks != migrated || c.ReloadedPRRs != reloaded {
						t.Fatalf("%s: DRC = %+v (total %v), reference bin %v bit %v total %v migrated %d reloaded %d",
							where, c, c.Total(), bin, bit, total, migrated, reloaded)
					}
					var loads [][2]int
					for _, a := range s.Diff(from, to) {
						if a.Kind == ActionLoadBitstream {
							loads = append(loads, [2]int{a.PRR, a.Bitstream})
						}
					}
					if want := refLoads(s, from, to); fmt.Sprint(loads) != fmt.Sprint(want) {
						t.Fatalf("%s: Diff loads %v, reference %v", where, loads, want)
					}
				}
			}
			half := len(ms) / 2
			set, probes := ms[:half], ms[half:]
			cache := NewDRCCache(s, set)
			for i, m := range append(probes, set...) {
				want := refAvgDRCTo(s, m, set)
				if got := s.AvgDRCTo(m, set); got != want {
					t.Fatalf("probe %d: AvgDRCTo = %v, reference %v", i, got, want)
				}
				for rep := 0; rep < 2; rep++ {
					if got := cache.AvgDRC(m); got != want {
						t.Fatalf("probe %d call %d: cached AvgDRC = %v, reference %v", i, rep, got, want)
					}
				}
			}
		})
	}
}

// TestDRCCacheCollisionConcurrent forces every genome onto one memo
// key, so each lookup must walk the collision chain and tell genomes
// apart with Equal, while eight goroutines fill and read the cache.
// Run it under -race.
func TestDRCCacheCollisionConcurrent(t *testing.T) {
	s := accelSpace(t, 61)
	set := accelMappings(s, 8, 62)
	probes := accelMappings(s, 10, 63)
	want := make([]float64, len(probes))
	for i, m := range probes {
		want[i] = refAvgDRCTo(s, m, set)
	}
	cache := NewDRCCache(s, set)
	cache.hash = func(*Mapping) uint64 { return 7 }
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for rep := 0; rep < 10; rep++ {
				for k := range probes {
					i := (k + w) % len(probes) // first fills race
					// A clone is a distinct pointer with equal genes: it
					// must hit the entry its original stored.
					m := probes[i]
					if rep%2 == 1 {
						m = m.Clone()
					}
					if got := cache.AvgDRC(m); got != want[i] {
						t.Errorf("worker %d: AvgDRC(probe %d) = %v, want %v", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestDRCAllocations pins the allocation-free dRC paths: DRCTotal, DRC
// and a DRCCache hit allocate nothing once warm.
func TestDRCAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	s := accelSpace(t, 64)
	ms := accelMappings(s, 4, 65)
	cache := NewDRCCache(s, ms[:2])
	cache.AvgDRC(ms[2])
	for name, f := range map[string]func(){
		"DRCTotal":     func() { s.DRCTotal(ms[0], ms[1]) },
		"DRC":          func() { s.DRC(ms[0], ms[1]) },
		"AvgDRC (hit)": func() { cache.AvgDRC(ms[2]) },
	} {
		if a := testing.AllocsPerRun(200, f); a != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, a)
		}
	}
}

// TestDrawAllocations pins the slice-free draws: Random allocates only
// the genome (the Mapping and its genes) and Repair allocates nothing.
func TestDrawAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	s := testSpace(t, 40)
	r := rng.New(66)
	if a := testing.AllocsPerRun(200, func() { s.Random(r) }); a != 2 {
		t.Errorf("Random allocates %v times per call, want 2", a)
	}
	m := s.Random(r)
	if a := testing.AllocsPerRun(200, func() {
		for g := range m.Genes {
			m.Genes[g].PE = -1 // force a redraw of every PE
		}
		s.Repair(m, r)
	}); a != 0 {
		t.Errorf("Repair allocates %v times per call, want 0", a)
	}
}

// TestDrawsMatchSliceForm holds RandomImpl, RandomPE, Random and Repair
// to the slice-building draws they replace: the same values from the
// same random draws.
func TestDrawsMatchSliceForm(t *testing.T) {
	for _, c := range drcRefCases(t) {
		s := c.space
		a, b := rng.New(67), rng.New(67)
		for i := 0; i < 200; i++ {
			task := i % s.Graph.NumTasks()
			runnable := s.RunnableImpls(task)
			want := runnable[b.Intn(len(runnable))]
			if got := s.RandomImpl(task, a); got != want {
				t.Fatalf("%s: RandomImpl(%d) = %d, slice form %d", c.name, task, got, want)
			}
			pes := s.CompatiblePEs(task, want)
			if got, want := s.RandomPE(task, want, a), pes[b.Intn(len(pes))]; got != want {
				t.Fatalf("%s: RandomPE(%d) = %d, slice form %d", c.name, task, got, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("%s: the draws consumed different random streams", c.name)
		}
	}
}
