package cohort

import "clrdse/internal/rng"

// Schedule is the deterministic epoch clock: epoch E (1-based) closes
// — and its value table becomes publishable — once the cohort has
// journaled Boundary(E) eligible decisions. Epoch lengths are jittered
// around BaseEvents by a seeded draw from internal/rng, so a fleet of
// nodes sharing (Seed, BaseEvents, Jitter) computes identical
// boundaries without coordination, while the jitter keeps cohorts
// from all publishing on the same beat. The schedule is stateless:
// published tables carry their epoch index, so a restarted worker
// resumes the schedule from the table it finds installed.
type Schedule struct {
	// Seed roots the jitter stream. Same seed, same boundaries,
	// forever — this is what lets journal replays attribute every
	// decision to the table version that must have produced it.
	Seed int64
	// BaseEvents is the nominal epoch length in eligible journaled
	// decisions (0 selects 256).
	BaseEvents int
	// Jitter is the fractional half-width of the per-epoch length
	// jitter in [0,1) (0 selects 0.25; negative disables jitter).
	Jitter float64
}

func (s *Schedule) base() int {
	if s.BaseEvents <= 0 {
		return 256
	}
	return s.BaseEvents
}

func (s *Schedule) jitter() float64 {
	if s.Jitter < 0 {
		return 0
	}
	if s.Jitter == 0 {
		return 0.25
	}
	return s.Jitter
}

// EpochLen returns the length of epoch (1-based) in eligible events:
// BaseEvents plus a seeded jitter drawn from the epoch's own split
// stream, never below 1. A pure function of (Seed, BaseEvents,
// Jitter, epoch).
func (s *Schedule) EpochLen(epoch uint64) int {
	base := s.base()
	span := int(float64(base) * s.jitter())
	if span == 0 {
		return base
	}
	// Each epoch owns a split stream: lengths are independent of how
	// many earlier epochs anyone computed.
	d := rng.New(s.Seed).Split(int64(epoch)).IntRange(-span, span)
	n := base + d
	if n < 1 {
		n = 1
	}
	return n
}

// Boundary returns the cumulative eligible-event count at which epoch
// (1-based) closes; Boundary(0) is 0. Strictly increasing in epoch.
func (s *Schedule) Boundary(epoch uint64) int {
	total := 0
	for e := uint64(1); e <= epoch; e++ {
		total += s.EpochLen(e)
	}
	return total
}
