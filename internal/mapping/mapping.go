// Package mapping defines the CLR-integrated task-mapping
// configuration X_i of the paper's Section 4.1 — the decision vector
// the design-time GA evolves and the run-time manager switches between
// — together with the reconfiguration model of Section 3.5 that prices
// the transition between two configurations (dRC).
//
// For every task the configuration fixes Psi_t = M_t x C_t:
//
//	M_t = (PE binding, implementation choice, schedule position)
//	C_t = (HW method, SSW method, ASW method)
//
// Reconfiguration cost follows the paper's locality argument: each PE
// has enough local memory for the binaries of the tasks mapped on it,
// so re-ordering tasks on a PE or changing a CLR configuration is
// free; re-binding a task to a new PE copies its implementation binary
// across the interconnect, and changing the accelerator hosted by a
// partially reconfigurable region streams a new bitstream through the
// configuration port.
package mapping

import (
	"fmt"
	"strconv"

	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

// Gene is the per-task slice of a configuration.
type Gene struct {
	// PE is the ID of the processing element the task is bound to.
	PE int
	// Impl indexes the task's implementation set; the implementation's
	// PE type must match the bound PE's type.
	Impl int
	// CLR selects the per-layer reliability methods for the task.
	CLR relmodel.Config
	// Prio is the task's list-scheduling priority (higher runs
	// earlier among ready tasks); it encodes the ordering part Q_t of
	// the mapping space.
	Prio int
}

// Mapping is one complete CLR-integrated task-mapping configuration
// X_i: one gene per task, indexed by task ID.
type Mapping struct {
	Genes []Gene
}

// Clone returns a deep copy.
func (m *Mapping) Clone() *Mapping {
	return &Mapping{Genes: append([]Gene(nil), m.Genes...)}
}

// Key returns a canonical string identifying the mapping, used to
// de-duplicate design points. Priorities are included because they
// change the schedule and therefore the metrics. Keys sit on the
// evaluation-memoisation hot path, so the rendering avoids fmt.
func (m *Mapping) Key() string {
	b := make([]byte, 0, 16*len(m.Genes))
	for i := range m.Genes {
		g := &m.Genes[i]
		b = strconv.AppendInt(b, int64(g.PE), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(g.Impl), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(g.CLR.HW), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(g.CLR.SSW), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(g.CLR.ASW), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(g.Prio), 10)
		b = append(b, '|')
	}
	return string(b)
}

// Hash returns a 64-bit hash of the genes: the key of the genome memos
// (Memo), which tell genomes that share a hash apart with Equal. Unlike
// Key it allocates nothing.
func (m *Mapping) Hash() uint64 {
	h := uint64(len(m.Genes))
	for i := range m.Genes {
		g := &m.Genes[i]
		h = hashWord(h, g.PE)
		h = hashWord(h, g.Impl)
		h = hashWord(h, g.CLR.HW)
		h = hashWord(h, g.CLR.SSW)
		h = hashWord(h, g.CLR.ASW)
		h = hashWord(h, g.Prio)
	}
	return h
}

// hashWord folds one gene field into the running hash: a multiply by
// the 64-bit golden ratio, then an xor-shift so high bits feed back
// into the low ones.
func hashWord(h uint64, v int) uint64 {
	h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Equal reports whether two mappings are identical gene-for-gene.
func (m *Mapping) Equal(o *Mapping) bool {
	if len(m.Genes) != len(o.Genes) {
		return false
	}
	for i := range m.Genes {
		if m.Genes[i] != o.Genes[i] {
			return false
		}
	}
	return true
}

// Space bundles the problem instance a mapping belongs to; it is
// shared by validation, random generation, repair and costing.
type Space struct {
	Graph     *taskgraph.Graph
	Platform  *platform.Platform
	Catalogue *relmodel.Catalogue
}

// Validate checks that the mapping is executable: one gene per task,
// PE and implementation indices in range, implementation targets the
// bound PE's type, and the CLR configuration is within the catalogue.
func (s *Space) Validate(m *Mapping) error {
	if len(m.Genes) != s.Graph.NumTasks() {
		return fmt.Errorf("mapping: %d genes for %d tasks", len(m.Genes), s.Graph.NumTasks())
	}
	for t, g := range m.Genes {
		if g.PE < 0 || g.PE >= s.Platform.NumPEs() {
			return fmt.Errorf("mapping: task %d bound to unknown PE %d", t, g.PE)
		}
		impls := s.Graph.Tasks[t].Impls
		if g.Impl < 0 || g.Impl >= len(impls) {
			return fmt.Errorf("mapping: task %d uses unknown impl %d", t, g.Impl)
		}
		if impls[g.Impl].PEType != s.Platform.PEs[g.PE].Type {
			return fmt.Errorf("mapping: task %d impl %d targets PE type %d but PE %d is type %d",
				t, g.Impl, impls[g.Impl].PEType, g.PE, s.Platform.PEs[g.PE].Type)
		}
		if !g.CLR.Valid(s.Catalogue) {
			return fmt.Errorf("mapping: task %d has CLR config %+v outside the catalogue", t, g.CLR)
		}
	}
	return nil
}

// CompatiblePEs returns the PE IDs on which the given implementation
// of the given task can run.
func (s *Space) CompatiblePEs(task, impl int) []int {
	return s.Platform.PEsOfType(s.Graph.Tasks[task].Impls[impl].PEType)
}

// RunnableImpls returns the indices of the task's implementations that
// have at least one compatible PE on the platform. On a degraded
// platform (a failed PE removing the last instance of a type) some
// implementations become unrunnable and must be skipped.
func (s *Space) RunnableImpls(task int) []int {
	var out []int
	for i := range s.Graph.Tasks[task].Impls {
		if s.runnable(task, i) {
			out = append(out, i)
		}
	}
	return out
}

// runnable reports whether the task's implementation has at least one
// PE to run on.
func (s *Space) runnable(task, impl int) bool {
	return s.numPEsOfType(s.Graph.Tasks[task].Impls[impl].PEType) > 0
}

// numPEsOfType counts the platform's PEs of one type.
func (s *Space) numPEsOfType(typ int) int {
	n := 0
	for i := range s.Platform.PEs {
		if s.Platform.PEs[i].Type == typ {
			n++
		}
	}
	return n
}

// numRunnable counts the task's runnable implementations: the length
// of RunnableImpls(task), without building it.
func (s *Space) numRunnable(task int) int {
	n := 0
	for i := range s.Graph.Tasks[task].Impls {
		if s.runnable(task, i) {
			n++
		}
	}
	return n
}

// RandomImpl draws one of the task's runnable implementations
// uniformly: RunnableImpls(task)[r.Intn(len(RunnableImpls(task)))],
// with the same single draw and no slice. It panics if the task has
// no runnable implementation; callers gate on Check.
func (s *Space) RandomImpl(task int, r *rng.Source) int {
	n := s.numRunnable(task)
	if n == 0 {
		panic(fmt.Sprintf("mapping: task %d has no runnable implementation (call Space.Check first)", task))
	}
	k := r.Intn(n)
	for i := range s.Graph.Tasks[task].Impls {
		if !s.runnable(task, i) {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("unreachable")
}

// RandomPE draws one of the PEs the task's implementation can run on
// uniformly: CompatiblePEs(task, impl)[r.Intn(len(...))], with the same
// single draw and no slice.
func (s *Space) RandomPE(task, impl int, r *rng.Source) int {
	typ := s.Graph.Tasks[task].Impls[impl].PEType
	k := r.Intn(s.numPEsOfType(typ))
	for i := range s.Platform.PEs {
		if s.Platform.PEs[i].Type != typ {
			continue
		}
		if k == 0 {
			return s.Platform.PEs[i].ID
		}
		k--
	}
	panic("unreachable")
}

// Check reports whether every task has at least one runnable
// implementation, i.e. whether any valid mapping exists at all.
func (s *Space) Check() error {
	for t := range s.Graph.Tasks {
		if s.numRunnable(t) == 0 {
			return fmt.Errorf("mapping: task %d has no implementation runnable on platform %q", t, s.Platform.Name)
		}
	}
	return nil
}

// Random generates a uniformly random valid mapping: for each task it
// picks an implementation, then a PE of the matching type, a CLR
// configuration and a priority. It allocates only the genome.
func (s *Space) Random(r *rng.Source) *Mapping {
	n := s.Graph.NumTasks()
	m := &Mapping{Genes: make([]Gene, n)}
	for t := 0; t < n; t++ {
		g := &m.Genes[t]
		g.Impl = s.RandomImpl(t, r)
		g.PE = s.RandomPE(t, g.Impl, r)
		g.CLR = relmodel.ConfigFromIndex(r.Intn(s.Catalogue.NumConfigs()), s.Catalogue)
		g.Prio = r.Intn(4 * n)
	}
	return m
}

// Repair makes a possibly-invalid mapping valid in place with minimal
// disturbance: out-of-range indices are clamped, and an impl/PE type
// mismatch is resolved by re-binding the task to a random compatible
// PE (keeping the implementation choice, which crossover meant to
// preserve). It allocates nothing.
func (s *Space) Repair(m *Mapping, r *rng.Source) {
	for t := range m.Genes {
		g := &m.Genes[t]
		impls := s.Graph.Tasks[t].Impls
		if g.Impl < 0 || g.Impl >= len(impls) || !s.runnable(t, g.Impl) {
			g.Impl = s.RandomImpl(t, r)
		}
		if g.CLR.HW < 0 || g.CLR.HW >= len(s.Catalogue.HW) {
			g.CLR.HW = r.Intn(len(s.Catalogue.HW))
		}
		if g.CLR.SSW < 0 || g.CLR.SSW >= len(s.Catalogue.SSW) {
			g.CLR.SSW = r.Intn(len(s.Catalogue.SSW))
		}
		if g.CLR.ASW < 0 || g.CLR.ASW >= len(s.Catalogue.ASW) {
			g.CLR.ASW = r.Intn(len(s.Catalogue.ASW))
		}
		if g.PE < 0 || g.PE >= s.Platform.NumPEs() ||
			impls[g.Impl].PEType != s.Platform.PEs[g.PE].Type {
			g.PE = s.RandomPE(t, g.Impl, r)
		}
		if g.Prio < 0 {
			g.Prio = -g.Prio
		}
	}
}
