// Package ga implements the genetic-algorithm machinery the paper's
// design-time DSE is built on (the role DEAP/PYGMO play in the
// authors' Python implementation): an NSGA-II-style multi-objective
// evolutionary engine over CLR-integrated task-mapping genomes, with
// the paper's operator parameters — crossover probability 0.7,
// per-gene mutation probability 0.03, tournament selection with 5
// individuals (Section 5.1).
//
// Constraints are handled by constraint-domination, the selection-side
// equivalent of Figure 4a's negative hyper-volume fitness for
// infeasible points: any feasible individual beats any infeasible one,
// infeasible individuals are ordered by total violation, and feasible
// individuals are ordered by Pareto rank then crowding distance.
package ga

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"clrdse/internal/mapping"
	"clrdse/internal/pareto"
	"clrdse/internal/rng"
)

// Objective evaluates a genome and returns its objective vector (all
// minimised), its total constraint violation (0 when feasible) and an
// arbitrary payload cached on the individual (typically the schedule
// result, so downstream stages need not re-evaluate).
type Objective func(m *mapping.Mapping) (objs []float64, violation float64, payload any)

// Individual is one member of the population.
type Individual struct {
	// M is the genome.
	M *mapping.Mapping
	// Objs is the minimised objective vector.
	Objs []float64
	// Violation is the total constraint violation (0 = feasible).
	Violation float64
	// Payload is whatever the Objective attached.
	Payload any

	rank  int
	crowd float64
}

// Feasible reports whether the individual satisfies all constraints.
func (ind *Individual) Feasible() bool { return ind.Violation == 0 }

// Params are the engine's knobs. Zero values select the paper's
// settings where the paper specifies one.
type Params struct {
	// PopSize is the population size (0 selects 80).
	PopSize int
	// Generations is the number of generations (0 selects 60).
	Generations int
	// CrossoverProb is the per-pair crossover probability
	// (0 selects the paper's 0.7).
	CrossoverProb float64
	// MutationProb is the per-gene mutation probability
	// (0 selects the paper's 0.03).
	MutationProb float64
	// TournamentSize is the selection tournament size
	// (0 selects the paper's 5).
	TournamentSize int
	// Seed drives all randomness.
	Seed int64
	// Seeds are genomes injected into the initial population (cloned);
	// the ReD stage seeds each sub-optimisation from a Pareto point.
	Seeds []*mapping.Mapping
	// Workers evaluates each batch of genomes concurrently on a fixed
	// set of min(Workers, batch size) goroutines, which claim genomes
	// by index (0/1 = serial). Results are bit-identical to serial runs
	// — genome creation stays sequential, only the (pure) objective
	// calls fan out, and each result lands at its genome's index — but
	// the Objective must be safe for concurrent use.
	Workers int
	// Crossover selects the recombination operator (default uniform).
	Crossover CrossoverKind
	// Survival selects how a split front is truncated (default
	// crowding distance, the NSGA-II rule).
	Survival SurvivalKind
}

// SurvivalKind selects the truncation rule for the last front that
// does not fit into the next generation.
type SurvivalKind int

const (
	// SurvivalCrowding keeps the least-crowded members (NSGA-II).
	SurvivalCrowding SurvivalKind = iota
	// SurvivalHypervolume keeps the members with the largest exclusive
	// hyper-volume contribution (SMS-EMOA style) — the literal reading
	// of the paper's Eq. (5), which maximises the summed hyper-volume
	// of the stored collection. The reference point is the pool's
	// per-objective worst value plus a margin.
	SurvivalHypervolume
)

func (k SurvivalKind) String() string {
	switch k {
	case SurvivalCrowding:
		return "crowding"
	case SurvivalHypervolume:
		return "hypervolume"
	default:
		return fmt.Sprintf("SurvivalKind(%d)", int(k))
	}
}

// CrossoverKind selects the recombination operator.
type CrossoverKind int

const (
	// CrossoverUniform exchanges each task gene independently with
	// probability 1/2 (the default; strongest mixing).
	CrossoverUniform CrossoverKind = iota
	// CrossoverOnePoint splits the genome at one random task index.
	CrossoverOnePoint
	// CrossoverTwoPoint exchanges a random contiguous gene segment,
	// preserving locality at both genome ends.
	CrossoverTwoPoint
)

func (k CrossoverKind) String() string {
	switch k {
	case CrossoverUniform:
		return "uniform"
	case CrossoverOnePoint:
		return "one-point"
	case CrossoverTwoPoint:
		return "two-point"
	default:
		return fmt.Sprintf("CrossoverKind(%d)", int(k))
	}
}

func (p Params) withDefaults() Params {
	if p.PopSize == 0 {
		p.PopSize = 80
	}
	if p.Generations == 0 {
		p.Generations = 60
	}
	if p.CrossoverProb == 0 {
		p.CrossoverProb = 0.7
	}
	if p.MutationProb == 0 {
		p.MutationProb = 0.03
	}
	if p.TournamentSize == 0 {
		p.TournamentSize = 5
	}
	return p
}

func (p Params) validate() error {
	switch {
	case p.PopSize < 2:
		return fmt.Errorf("ga: PopSize must be >= 2, got %d", p.PopSize)
	case p.Generations < 1:
		return fmt.Errorf("ga: Generations must be >= 1, got %d", p.Generations)
	case p.CrossoverProb < 0 || p.CrossoverProb > 1:
		return fmt.Errorf("ga: CrossoverProb out of range: %v", p.CrossoverProb)
	case p.MutationProb < 0 || p.MutationProb > 1:
		return fmt.Errorf("ga: MutationProb out of range: %v", p.MutationProb)
	case p.TournamentSize < 1:
		return fmt.Errorf("ga: TournamentSize must be >= 1, got %d", p.TournamentSize)
	}
	return nil
}

// GenStats summarises one generation for progress reporting and
// convergence tracking.
type GenStats struct {
	Generation    int
	FeasibleCount int
	FrontSize     int
	BestObjs      []float64 // per-objective minimum among feasible
	// FrontObjs are the objective vectors of the feasible first front,
	// for hyper-volume/IGD convergence curves.
	FrontObjs [][]float64
}

// Engine runs the evolutionary optimisation.
type Engine struct {
	// Space defines the genome structure (graph, platform, catalogue).
	Space *mapping.Space
	// Eval scores genomes.
	Eval Objective
	// Params are the GA settings.
	Params Params
	// OnGeneration, if non-nil, is invoked after every generation.
	OnGeneration func(GenStats)
}

// Run evolves the population and returns the final one.
func (e *Engine) Run() (*Population, error) {
	p := e.Params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if e.Eval == nil {
		return nil, fmt.Errorf("ga: nil Objective")
	}
	r := rng.New(p.Seed)

	var genomes []*mapping.Mapping
	for _, s := range p.Seeds {
		if len(genomes) == p.PopSize {
			break
		}
		genomes = append(genomes, s.Clone())
	}
	for len(genomes) < p.PopSize {
		genomes = append(genomes, e.Space.Random(r))
	}
	pop := e.evalAll(genomes, p.Workers)
	rank(pop)

	for gen := 0; gen < p.Generations; gen++ {
		genomes = genomes[:0]
		for len(genomes) < p.PopSize {
			a := e.tournament(pop, r, p.TournamentSize)
			b := e.tournament(pop, r, p.TournamentSize)
			ca, cb := a.M.Clone(), b.M.Clone()
			if r.Bool(p.CrossoverProb) {
				crossover(ca, cb, r, p.Crossover)
			}
			e.mutate(ca, r, p.MutationProb)
			e.mutate(cb, r, p.MutationProb)
			e.Space.Repair(ca, r)
			e.Space.Repair(cb, r)
			genomes = append(genomes, ca)
			if len(genomes) < p.PopSize {
				genomes = append(genomes, cb)
			}
		}
		offspring := e.evalAll(genomes, p.Workers)
		pop = environmentalSelect(append(pop, offspring...), p.PopSize, p.Survival)
		if e.OnGeneration != nil {
			e.OnGeneration(stats(gen, pop))
		}
	}
	return &Population{Individuals: pop}, nil
}

// evalAll scores the genomes, fanning the objective calls out over a
// fixed set of workers that claim genome indices from a shared
// counter, so a worker's stack grows once, not once per genome. Output
// order (and therefore every downstream decision) is by index,
// independent of scheduling.
func (e *Engine) evalAll(genomes []*mapping.Mapping, workers int) []*Individual {
	out := make([]*Individual, len(genomes))
	workers = min(workers, len(genomes))
	if workers <= 1 {
		for i, m := range genomes {
			out[i] = e.newIndividual(m)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(genomes) {
					return
				}
				out[i] = e.newIndividual(genomes[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (e *Engine) newIndividual(m *mapping.Mapping) *Individual {
	objs, violation, payload := e.Eval(m)
	return &Individual{M: m, Objs: objs, Violation: violation, Payload: payload}
}

// tournament picks the best of k random individuals under
// constraint-dominated comparison.
func (e *Engine) tournament(pop []*Individual, r *rng.Source, k int) *Individual {
	best := pop[r.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[r.Intn(len(pop))]
		if better(c, best) {
			best = c
		}
	}
	return best
}

// better implements the constraint-dominated comparison used by both
// tournaments and environmental selection.
func better(a, b *Individual) bool {
	switch {
	case a.Feasible() && !b.Feasible():
		return true
	case !a.Feasible() && b.Feasible():
		return false
	case !a.Feasible(): // both infeasible
		return a.Violation < b.Violation
	case a.rank != b.rank:
		return a.rank < b.rank
	default:
		return a.crowd > b.crowd
	}
}

// crossover recombines two genomes in place with the selected
// operator.
func crossover(a, b *mapping.Mapping, r *rng.Source, kind CrossoverKind) {
	n := len(a.Genes)
	if n == 0 {
		return
	}
	swap := func(lo, hi int) {
		for t := lo; t < hi; t++ {
			a.Genes[t], b.Genes[t] = b.Genes[t], a.Genes[t]
		}
	}
	switch kind {
	case CrossoverOnePoint:
		swap(r.Intn(n), n)
	case CrossoverTwoPoint:
		i, j := r.Intn(n), r.Intn(n)
		if i > j {
			i, j = j, i
		}
		swap(i, j+1)
	default: // uniform
		for t := range a.Genes {
			if r.Bool(0.5) {
				a.Genes[t], b.Genes[t] = b.Genes[t], a.Genes[t]
			}
		}
	}
}

// mutate perturbs each gene with the configured probability: one of
// the gene's fields (binding+impl, CLR layer, or priority) is
// re-randomised.
func (e *Engine) mutate(m *mapping.Mapping, r *rng.Source, prob float64) {
	n := e.Space.Graph.NumTasks()
	for t := range m.Genes {
		if !r.Bool(prob) {
			continue
		}
		g := &m.Genes[t]
		switch r.Intn(4) {
		case 0: // re-bind: new runnable implementation and compatible PE
			g.Impl = e.Space.RandomImpl(t, r)
			g.PE = e.Space.RandomPE(t, g.Impl, r)
		case 1: // new CLR configuration for one random layer
			switch r.Intn(3) {
			case 0:
				g.CLR.HW = r.Intn(len(e.Space.Catalogue.HW))
			case 1:
				g.CLR.SSW = r.Intn(len(e.Space.Catalogue.SSW))
			default:
				g.CLR.ASW = r.Intn(len(e.Space.Catalogue.ASW))
			}
		case 2: // new priority
			g.Prio = r.Intn(4 * n)
		case 3: // move to another compatible PE, keep impl
			g.PE = e.Space.RandomPE(t, g.Impl, r)
		}
	}
}

// rank assigns Pareto ranks and crowding distances. Infeasible
// individuals all receive a rank worse than any feasible one.
func rank(pop []*Individual) {
	var feasible []*Individual
	for _, ind := range pop {
		if ind.Feasible() {
			feasible = append(feasible, ind)
		}
	}
	if len(feasible) > 0 {
		objs := make([][]float64, len(feasible))
		for i, ind := range feasible {
			objs[i] = ind.Objs
		}
		fronts := pareto.Sort(objs)
		for fr, members := range fronts {
			crowd := pareto.Crowding(objs, members)
			for _, i := range members {
				feasible[i].rank = fr
				feasible[i].crowd = crowd[i]
			}
		}
	}
	worst := len(pop) + 1
	for _, ind := range pop {
		if !ind.Feasible() {
			ind.rank = worst
			ind.crowd = -ind.Violation // less violated = preferred
		}
	}
}

// environmentalSelect ranks the merged parent+offspring pool and keeps
// the best n under constraint-domination, truncating the split front
// by the selected survival rule.
func environmentalSelect(pool []*Individual, n int, survival SurvivalKind) []*Individual {
	rank(pool)
	if survival == SurvivalHypervolume {
		applyHypervolumeCrowd(pool)
	}
	// Feasible by (rank, crowd), then infeasible by violation. better()
	// is not a strict weak order across ranks and crowding, so sort on
	// an explicit one; crowding values are finite or +Inf and
	// violations finite, so it is one, and a stable sort under it has
	// exactly one output.
	sorted := slices.Clone(pool)
	slices.SortStableFunc(sorted, compareSurvival)
	return sorted[:n]
}

// compareSurvival orders individuals for survival: feasible before
// infeasible, less violated first among the infeasible, lower rank
// then larger crowding first among the feasible.
func compareSurvival(a, b *Individual) int {
	switch {
	case a.Feasible() != b.Feasible():
		if a.Feasible() {
			return -1
		}
		return 1
	case !a.Feasible():
		return cmp.Compare(a.Violation, b.Violation)
	case a.rank != b.rank:
		return cmp.Compare(a.rank, b.rank)
	default:
		return cmp.Compare(b.crowd, a.crowd)
	}
}

// applyHypervolumeCrowd overwrites the feasible individuals' crowding
// values with their exclusive hyper-volume contributions per front, so
// the shared (rank, crowd) ordering implements SMS-EMOA-style
// truncation.
func applyHypervolumeCrowd(pool []*Individual) {
	byRank := map[int][]*Individual{}
	for _, ind := range pool {
		if ind.Feasible() {
			byRank[ind.rank] = append(byRank[ind.rank], ind)
		}
	}
	for _, members := range byRank {
		objs := make([][]float64, len(members))
		for i, ind := range members {
			objs[i] = ind.Objs
		}
		ref := make([]float64, len(objs[0]))
		for d := range ref {
			worst := math.Inf(-1)
			for _, o := range objs {
				worst = math.Max(worst, o[d])
			}
			span := math.Abs(worst)
			if span == 0 {
				span = 1
			}
			ref[d] = worst + 0.05*span
		}
		contrib := pareto.Contribution(objs, ref)
		for i, ind := range members {
			ind.crowd = contrib[i]
		}
	}
}

func stats(gen int, pop []*Individual) GenStats {
	s := GenStats{Generation: gen}
	for _, ind := range pop {
		if !ind.Feasible() {
			continue
		}
		s.FeasibleCount++
		if ind.rank == 0 {
			s.FrontSize++
			s.FrontObjs = append(s.FrontObjs, ind.Objs)
		}
		if s.BestObjs == nil {
			s.BestObjs = append([]float64(nil), ind.Objs...)
		} else {
			for i, v := range ind.Objs {
				s.BestObjs[i] = math.Min(s.BestObjs[i], v)
			}
		}
	}
	return s
}

// Population is the result of a run.
type Population struct {
	Individuals []*Individual
}

// ParetoFront returns the feasible first-front individuals in
// front order, de-duplicated by genome (hash, then Equal).
func (p *Population) ParetoFront() []*Individual {
	var feasible []*Individual
	for _, ind := range p.Individuals {
		if ind.Feasible() {
			feasible = append(feasible, ind)
		}
	}
	if len(feasible) == 0 {
		return nil
	}
	objs := make([][]float64, len(feasible))
	for i, ind := range feasible {
		objs[i] = ind.Objs
	}
	var front []*Individual
	var seen mapping.Memo[struct{}]
	for _, i := range pareto.NonDominated(objs) {
		if m := feasible[i].M; seen.Add(m.Hash(), m, struct{}{}) {
			front = append(front, feasible[i])
		}
	}
	return front
}
