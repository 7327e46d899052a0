package dse

// This file implements the run-time reconfiguration-cost-aware DSE of
// Section 4.2.1 (ReD). For each design point in the stage-1 solution
// set, the point seeds a secondary multi-objective optimisation whose
// additional objective is the average reconfiguration distance dRC of
// a candidate from the stored optimal set, and whose constraints bound
// the candidate's QoS/performance degradation relative to its seed by
// a tolerance. The non-dominated candidates (with dRC included as an
// objective) that genuinely reduce reconfiguration distance are added
// to the database as "additional non-dominant design points" — the
// '>'-marked points of Figure 5 that let the run-time manager satisfy
// a new QoS specification with cheaper task migration (F''_Op instead
// of F'_Op in Figure 4b).

import (
	"fmt"
	gort "runtime"
	"sync"

	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/schedule"
)

// ReDParams configures the reconfiguration-cost-aware stage.
type ReDParams struct {
	// Tolerance bounds the relative degradation of each metric of a
	// candidate versus its seed point: energy and makespan may grow by
	// at most Tolerance (fraction), reliability may drop by at most
	// Tolerance (absolute, scaled by 1-F headroom). 0 selects 0.10.
	Tolerance float64
	// GA configures each per-seed sub-optimisation; PopSize and
	// Generations default smaller than stage 1 (0 selects 40/25).
	GA ga.Params
	// MaxExtraPerSeed bounds how many additional points one seed may
	// contribute (0 selects 3) so the database stays within the
	// paper's storage constraints.
	MaxExtraPerSeed int
	// Workers is the number of per-seed sub-optimisations run
	// concurrently (0 selects GOMAXPROCS, 1 runs serially). Every
	// sub-GA draws from its own seed-indexed random stream and the
	// fronts are merged in seed order, so the resulting database is
	// byte-identical for any worker count.
	Workers int
}

func (p ReDParams) withDefaults() ReDParams {
	if p.Tolerance == 0 {
		p.Tolerance = 0.10
	}
	if p.GA.PopSize == 0 {
		p.GA.PopSize = 40
	}
	if p.GA.Generations == 0 {
		p.GA.Generations = 25
	}
	if p.MaxExtraPerSeed == 0 {
		p.MaxExtraPerSeed = 3
	}
	return p
}

// RunReD executes the stage-2 optimisation and returns a new database
// containing every BaseD point plus the additional non-dominant,
// reconfiguration-cheap points. The input database is not modified.
func RunReD(p *Problem, base *Database, rp ReDParams) (*Database, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if base.Len() == 0 {
		return nil, fmt.Errorf("dse: ReD needs a non-empty base database")
	}
	rp = rp.withDefaults()
	if rp.Tolerance < 0 || rp.Tolerance >= 1 {
		return nil, fmt.Errorf("dse: ReD tolerance must be in [0,1), got %v", rp.Tolerance)
	}
	ev := NewEvaluator(p)
	// Every seed's sub-GA measures distances to the same stored set, so
	// one cache serves them all: the set is prepared once per run and
	// a genome two seeds both reach is priced once.
	drc := mapping.NewDRCCache(p.Space, base.Mappings())

	out := &Database{Name: "ReD"}
	var seen mapping.Memo[struct{}]
	for _, bp := range base.Points {
		out.Points = append(out.Points, &DesignPoint{
			ID:          len(out.Points),
			M:           bp.M,
			MakespanMs:  bp.MakespanMs,
			Reliability: bp.Reliability,
			EnergyMJ:    bp.EnergyMJ,
			PeakPowerW:  bp.PeakPowerW,
			MTTFMs:      bp.MTTFMs,
		})
		seen.Add(bp.M.Hash(), bp.M, struct{}{})
	}

	// The per-seed sub-optimisations are independent: each draws from
	// its own seed-indexed random stream and only shares the memoising
	// evaluator (whose results do not depend on scheduling order). Run
	// them across a worker pool and merge the fronts serially in seed
	// order, so the output database is byte-identical to a serial run.
	workers := rp.Workers
	if workers <= 0 {
		workers = gort.GOMAXPROCS(0)
	}
	if workers > len(base.Points) {
		workers = len(base.Points)
	}
	type seedResult struct {
		front []redCandidate
		err   error
	}
	results := make([]seedResult, len(base.Points))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				front, err := redForSeed(p, ev, drc, base.Points[i], rp, int64(i))
				results[i] = seedResult{front: front, err: err}
			}
		}()
	}
	for i := range base.Points {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	for seedIdx, seed := range base.Points {
		if results[seedIdx].err != nil {
			return nil, results[seedIdx].err
		}
		// The threshold depends on the seed alone, so compute it once
		// per seed, not per candidate. The seed's genome entered its
		// sub-GA's first population, so the cache already holds its
		// distance.
		out.addExtras(&seen, results[seedIdx].front, drc.AvgDRC(seed.M), rp.MaxExtraPerSeed)
	}
	if p.Stats != nil {
		p.Stats.ReDEvals = ev.Evals
		p.Stats.ReDExtras = len(out.ReDPoints())
	}
	return out, nil
}

// addExtras appends up to limit of one seed's candidates, in their
// order, as ReD points. It keeps only candidates not stored yet (seen
// holds every stored genome) and strictly cheaper to reach than the
// seed itself (seedDist): a point as expensive as the seed adds
// storage without adaptation benefit.
func (db *Database) addExtras(seen *mapping.Memo[struct{}], front []redCandidate, seedDist float64, limit int) {
	added := 0
	for _, cand := range front {
		if added >= limit {
			break
		}
		h := cand.M.Hash()
		if _, dup := seen.Get(h, cand.M); dup {
			continue
		}
		if cand.avgDRC >= seedDist {
			continue
		}
		seen.Add(h, cand.M, struct{}{})
		db.Points = append(db.Points, &DesignPoint{
			ID:          len(db.Points),
			M:           cand.M,
			MakespanMs:  cand.res.MakespanMs,
			Reliability: cand.res.Reliability,
			EnergyMJ:    cand.res.EnergyMJ,
			PeakPowerW:  cand.res.PeakPowerW,
			MTTFMs:      cand.res.MTTFMs,
			FromReD:     true,
		})
		added++
	}
}

type redCandidate struct {
	M      *mapping.Mapping
	res    *schedule.Summary
	avgDRC float64
}

// redForSeed runs one per-seed sub-optimisation. Objectives:
// (avgDRC to stored set, energy or makespan) minimised; constraints:
// global feasibility plus bounded degradation versus the seed. ev and
// drc are shared by every seed of the run.
func redForSeed(p *Problem, ev *Evaluator, drc *mapping.DRCCache, seed *DesignPoint, rp ReDParams, seedIdx int64) ([]redCandidate, error) {
	tol := rp.Tolerance
	sBound := seed.MakespanMs * (1 + tol)
	if sBound > p.SMaxMs {
		sBound = p.SMaxMs
	}
	jBound := seed.EnergyMJ * (1 + tol)
	fBound := seed.Reliability - tol*(1-p.FMin)
	if fBound < p.FMin {
		fBound = p.FMin
	}

	obj := func(m *mapping.Mapping) ([]float64, float64, any) {
		// One hash keys both memos.
		h := ev.hash(m)
		res, err := ev.evaluate(h, m)
		if err != nil {
			panic("dse: ReD objective on invalid genome: " + err.Error())
		}
		violation := 0.0
		if res.MakespanMs > sBound {
			violation += (res.MakespanMs - sBound) / sBound
		}
		if !p.CSP && res.EnergyMJ > jBound {
			violation += (res.EnergyMJ - jBound) / jBound
		}
		if res.Reliability < fBound {
			violation += fBound - res.Reliability
		}
		avg := drc.AvgDRCHashed(h, m)
		perf := res.EnergyMJ
		if p.CSP {
			perf = res.MakespanMs
		}
		return []float64{avg, perf}, violation, res
	}

	params := rp.GA
	params.Seed = rp.GA.Seed*1000003 + seedIdx // distinct stream per seed
	params.Seeds = []*mapping.Mapping{seed.M}
	if params.Workers == 0 {
		params.Workers = gort.GOMAXPROCS(0)
	}
	engine := &ga.Engine{Space: p.Space, Eval: obj, Params: params}
	pop, err := engine.Run()
	if err != nil {
		return nil, err
	}
	var out []redCandidate
	for _, ind := range pop.ParetoFront() {
		out = append(out, redCandidate{
			M:      ind.M,
			res:    ind.Payload.(*schedule.Summary),
			avgDRC: ind.Objs[0],
		})
	}
	// Cheapest-to-reach candidates first.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].avgDRC < out[j-1].avgDRC; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}
