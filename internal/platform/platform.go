// Package platform implements the architecture model of the paper's
// Section 3.1: a heterogeneous MPSoC (HMPSoC) with a distributed shared
// memory architecture, P processing elements (PEs) of several types,
// and a reconfigurable-logic region partitioned into partially
// reconfigurable regions (PRRs) that host hardware accelerators loaded
// over an ICAP-style configuration port.
//
// Each PE is characterised by (ID, PEType); the PE type captures the
// heterogeneity factors enumerated in the paper: the kind of processor,
// the aging-related fault profile (Weibull shape beta), and the
// soft-error masking factor (an AVF-style architectural vulnerability
// factor). PEs have fixed local memory for task binaries, so re-ordering
// tasks on a PE or changing a CLR configuration is free, while moving a
// task binary to a different PE or loading a different accelerator
// bitstream into a PRR incurs reconfiguration cost (Section 3.5).
package platform

import "fmt"

// Kind distinguishes the physical nature of a processing element.
type Kind int

const (
	// KindProcessor is a general-purpose embedded processor.
	KindProcessor Kind = iota
	// KindReconfigurable is a slot of reconfigurable logic: the PE
	// executes accelerator implementations loaded into a PRR.
	KindReconfigurable
)

func (k Kind) String() string {
	switch k {
	case KindProcessor:
		return "processor"
	case KindReconfigurable:
		return "reconfigurable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PEType describes one class of processing element. Heterogeneity in
// the platform is expressed entirely through differences between types.
type PEType struct {
	// Name is a human-readable label ("big", "little", "fpga", ...).
	Name string
	// Kind is the physical nature of PEs of this type.
	Kind Kind
	// SpeedFactor scales task execution time: an implementation's base
	// execution time is divided by SpeedFactor when run on this type.
	SpeedFactor float64
	// MaskingFactor is the soft-error masking probability of the PE
	// micro-architecture (1 - AVF): the fraction of raw particle
	// strikes that are architecturally masked before becoming errors.
	// In the paper the three PE types differ in this factor.
	MaskingFactor float64
	// AgingBeta is the Weibull shape parameter of the type's
	// aging-related fault profile (beta_p in the paper).
	AgingBeta float64
	// IdlePowerW is the static power drawn while idle, in watts.
	IdlePowerW float64
	// PowerFactor scales an implementation's dynamic power on this type.
	PowerFactor float64
}

// Validate reports whether the type's parameters are physically
// meaningful.
func (t *PEType) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("platform: PEType with empty name")
	case t.SpeedFactor <= 0:
		return fmt.Errorf("platform: PEType %q: SpeedFactor must be positive, got %v", t.Name, t.SpeedFactor)
	case t.MaskingFactor < 0 || t.MaskingFactor >= 1:
		return fmt.Errorf("platform: PEType %q: MaskingFactor must be in [0,1), got %v", t.Name, t.MaskingFactor)
	case t.AgingBeta <= 0:
		return fmt.Errorf("platform: PEType %q: AgingBeta must be positive, got %v", t.Name, t.AgingBeta)
	case t.IdlePowerW < 0:
		return fmt.Errorf("platform: PEType %q: IdlePowerW must be non-negative, got %v", t.Name, t.IdlePowerW)
	case t.PowerFactor <= 0:
		return fmt.Errorf("platform: PEType %q: PowerFactor must be positive, got %v", t.Name, t.PowerFactor)
	}
	return nil
}

// PE is one processing element instance: the tuple (ID_p, PEType_p) of
// the paper, plus the fixed local memory that holds task binaries.
type PE struct {
	// ID is the PE's index within the platform, 0-based and dense.
	ID int
	// Type indexes Platform.Types.
	Type int
	// LocalMemKB is the size of the PE's local binary store.
	LocalMemKB int
	// PRR, for reconfigurable PEs, is the index of the partially
	// reconfigurable region backing this PE; -1 for processors.
	PRR int
}

// PRR is a partially reconfigurable region of the FPGA fabric.
// Loading a different accelerator into a PRR means streaming its
// bitstream through the configuration port, which costs time and
// interconnect energy and is the dominant part of dRC for
// accelerator-to-accelerator changes.
type PRR struct {
	// ID is the PRR's index, 0-based and dense.
	ID int
	// BitstreamKB is the size of a full PRR bitstream.
	BitstreamKB int
}

// Platform is the complete HMPSoC model.
type Platform struct {
	// Name labels the platform in reports.
	Name string
	// Types is the catalogue of PE types present.
	Types []PEType
	// PEs are the processing elements, indexed by PE.ID.
	PEs []PE
	// PRRs are the partially reconfigurable regions, indexed by PRR.ID.
	PRRs []PRR
	// InterconnectKBps is the on-chip interconnect bandwidth used when
	// migrating task binaries between local memories (KB per ms).
	InterconnectKBps float64
	// ICAPKBps is the configuration-port bandwidth used when loading
	// PRR bitstreams (KB per ms).
	ICAPKBps float64
}

// Validate checks structural consistency: dense IDs, valid type
// references, reconfigurable PEs pointing at existing PRRs.
func (p *Platform) Validate() error {
	if len(p.Types) == 0 {
		return fmt.Errorf("platform %q: no PE types", p.Name)
	}
	if len(p.PEs) == 0 {
		return fmt.Errorf("platform %q: no PEs", p.Name)
	}
	if p.InterconnectKBps <= 0 {
		return fmt.Errorf("platform %q: InterconnectKBps must be positive, got %v", p.Name, p.InterconnectKBps)
	}
	for i := range p.Types {
		if err := p.Types[i].Validate(); err != nil {
			return err
		}
	}
	for i, pe := range p.PEs {
		if pe.ID != i {
			return fmt.Errorf("platform %q: PE at index %d has ID %d (IDs must be dense)", p.Name, i, pe.ID)
		}
		if pe.Type < 0 || pe.Type >= len(p.Types) {
			return fmt.Errorf("platform %q: PE %d references unknown type %d", p.Name, pe.ID, pe.Type)
		}
		if pe.LocalMemKB <= 0 {
			return fmt.Errorf("platform %q: PE %d has non-positive local memory", p.Name, pe.ID)
		}
		t := &p.Types[pe.Type]
		switch t.Kind {
		case KindReconfigurable:
			if pe.PRR < 0 || pe.PRR >= len(p.PRRs) {
				return fmt.Errorf("platform %q: reconfigurable PE %d references unknown PRR %d", p.Name, pe.ID, pe.PRR)
			}
			if p.ICAPKBps <= 0 {
				return fmt.Errorf("platform %q: reconfigurable PEs present but ICAPKBps is %v", p.Name, p.ICAPKBps)
			}
		case KindProcessor:
			if pe.PRR != -1 {
				return fmt.Errorf("platform %q: processor PE %d must have PRR = -1, got %d", p.Name, pe.ID, pe.PRR)
			}
		}
	}
	for i, r := range p.PRRs {
		if r.ID != i {
			return fmt.Errorf("platform %q: PRR at index %d has ID %d (IDs must be dense)", p.Name, i, r.ID)
		}
		if r.BitstreamKB <= 0 {
			return fmt.Errorf("platform %q: PRR %d has non-positive bitstream size", p.Name, r.ID)
		}
	}
	return nil
}

// TypeOf returns the PEType of the given PE. It panics on an invalid
// index; callers are expected to have validated the platform.
func (p *Platform) TypeOf(peID int) *PEType {
	return &p.Types[p.PEs[peID].Type]
}

// NumPEs returns the number of processing elements.
func (p *Platform) NumPEs() int { return len(p.PEs) }

// PEsOfType returns the IDs of all PEs whose type index is typeIdx.
func (p *Platform) PEsOfType(typeIdx int) []int {
	var ids []int
	for _, pe := range p.PEs {
		if pe.Type == typeIdx {
			ids = append(ids, pe.ID)
		}
	}
	return ids
}

// ProcessorPEs returns the IDs of all general-purpose PEs.
func (p *Platform) ProcessorPEs() []int {
	var ids []int
	for _, pe := range p.PEs {
		if p.Types[pe.Type].Kind == KindProcessor {
			ids = append(ids, pe.ID)
		}
	}
	return ids
}

// ReconfigurablePEs returns the IDs of all PRR-backed PEs.
func (p *Platform) ReconfigurablePEs() []int {
	var ids []int
	for _, pe := range p.PEs {
		if p.Types[pe.Type].Kind == KindReconfigurable {
			ids = append(ids, pe.ID)
		}
	}
	return ids
}

// BinaryMigrationMs returns the time, in milliseconds, to copy a task
// binary of the given size into a PE's local memory over the on-chip
// interconnect. This is the per-task component of dRC for task
// re-binding (Section 3.5, modes 3 and 4).
func (p *Platform) BinaryMigrationMs(binaryKB int) float64 {
	return float64(binaryKB) / p.InterconnectKBps
}

// BitstreamLoadMs returns the time, in milliseconds, to load a PRR
// bitstream of the given size through the configuration port.
func (p *Platform) BitstreamLoadMs(bitstreamKB int) float64 {
	return float64(bitstreamKB) / p.ICAPKBps
}
