package dse

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"clrdse/internal/ga"
)

// The design golden: one 64-bit fingerprint per (problem variant,
// graph size) of everything the design-time flow produces — both
// databases (genes, the five metric bits, FromReD) and the exploration
// statistics. The table was recorded once and must never be edited: a
// change to the search, the scheduler or the dRC kernels that moves a
// single output bit fails here, whatever the other tests say.

// goldenVariant is one problem/GA setting the golden covers.
type goldenVariant struct {
	name string
	// edit adjusts the problem and both GA settings (stage 1 and ReD).
	edit func(p *Problem, base *ga.Params, red *ReDParams)
}

var goldenVariants = []goldenVariant{
	{"default", func(*Problem, *ga.Params, *ReDParams) {}},
	{"csp", func(p *Problem, _ *ga.Params, _ *ReDParams) { p.CSP = true }},
	{"lifetime", func(p *Problem, _ *ga.Params, _ *ReDParams) { p.Lifetime = true }},
	{"contention", func(p *Problem, _ *ga.Params, _ *ReDParams) { p.ContentionAware = true }},
	{"wmax", func(p *Problem, _ *ga.Params, _ *ReDParams) { p.WMaxW = 4.5 }},
	{"hv-survival", func(_ *Problem, b *ga.Params, r *ReDParams) {
		b.Survival = ga.SurvivalHypervolume
		r.GA.Survival = ga.SurvivalHypervolume
	}},
	{"one-point", func(_ *Problem, b *ga.Params, r *ReDParams) {
		b.Crossover = ga.CrossoverOnePoint
		r.GA.Crossover = ga.CrossoverOnePoint
	}},
}

var goldenSizes = []int{10, 20, 32}

// designGolden holds the fingerprint of each variant at each size.
var designGolden = map[string]uint64{
	"default/n10":     0x81a87180417a98b1,
	"default/n20":     0x783cdafd19893afb,
	"default/n32":     0x73d41012dee18d6f,
	"csp/n10":         0xc139b030a433ce59,
	"csp/n20":         0xbc23399ad219d997,
	"csp/n32":         0x0d2d831a1f7d8a63,
	"lifetime/n10":    0xc89da5c2a318530e,
	"lifetime/n20":    0x3ce040deb417084a,
	"lifetime/n32":    0x96f64252c12a1802,
	"contention/n10":  0x93a00ad825a73954,
	"contention/n20":  0xee145e41b69fe0ef,
	"contention/n32":  0xbc1477fb02295c8f,
	"wmax/n10":        0xbbc1e41a4f2e0f9d,
	"wmax/n20":        0x1ff3d8cb565e86e2,
	"wmax/n32":        0x2811e8b66219a761,
	"hv-survival/n10": 0xd475744f1d268d52,
	"hv-survival/n20": 0x078ad472c3b81f3b,
	"hv-survival/n32": 0xf95a9d114f57b5d3,
	"one-point/n10":   0x02a4f5866d8b697b,
	"one-point/n20":   0xe5c8a8cd40015b67,
	"one-point/n32":   0x33ccbbd52eaa8e11,
}

// designFingerprint hashes both databases and the statistics.
func designFingerprint(st Stats, dbs ...*Database) uint64 {
	h := fnv.New64a()
	var b []byte
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	for _, db := range dbs {
		word(uint64(db.Len()))
		for _, pt := range db.Points {
			word(uint64(pt.ID))
			word(uint64(len(pt.M.Genes)))
			for _, g := range pt.M.Genes {
				for _, v := range []int{g.PE, g.Impl, g.CLR.HW, g.CLR.SSW, g.CLR.ASW, g.Prio} {
					word(uint64(v))
				}
			}
			for _, v := range []float64{pt.MakespanMs, pt.Reliability, pt.EnergyMJ, pt.PeakPowerW, pt.MTTFMs} {
				word(math.Float64bits(v))
			}
			if pt.FromReD {
				word(1)
			} else {
				word(0)
			}
		}
	}
	for _, v := range []int{st.Stage1Evals, st.Stage1Front, st.ReDEvals, st.ReDExtras} {
		word(uint64(v))
	}
	h.Write(b)
	return h.Sum64()
}

// TestDesignGolden runs BaseD and ReD for every variant and size and
// compares each fingerprint with the recorded table.
func TestDesignGolden(t *testing.T) {
	for _, v := range goldenVariants {
		for i, n := range goldenSizes {
			name := fmt.Sprintf("%s/n%d", v.name, n)
			p := testProblem(t, n, false)
			base, red := smallGA(int64(300+i)), smallReD(int64(400+i))
			v.edit(p, &base, &red)
			var st Stats
			p.Stats = &st
			baseDB, err := RunBase(p, base)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			redDB, err := RunReD(p, baseDB, red)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := designFingerprint(st, baseDB, redDB)
			want, ok := designGolden[name]
			switch {
			case !ok:
				t.Errorf("%s: no recorded fingerprint; got %#016x (BaseD %d, ReD %d points, stats %+v)",
					name, got, baseDB.Len(), redDB.Len(), st)
			case got != want:
				t.Errorf("%s: fingerprint %#016x, recorded %#016x (BaseD %d, ReD %d points, stats %+v)",
					name, got, want, baseDB.Len(), redDB.Len(), st)
			}
		}
	}
}
