package cohort

import "testing"

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule{Seed: 42, BaseEvents: 100, Jitter: 0.3}
	b := Schedule{Seed: 42, BaseEvents: 100, Jitter: 0.3}
	for e := uint64(1); e <= 20; e++ {
		if a.EpochLen(e) != b.EpochLen(e) {
			t.Fatalf("epoch %d length differs across identical schedules", e)
		}
	}
	c := Schedule{Seed: 43, BaseEvents: 100, Jitter: 0.3}
	same := true
	for e := uint64(1); e <= 20; e++ {
		if a.EpochLen(e) != c.EpochLen(e) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 20-epoch schedules")
	}
}

func TestScheduleBounds(t *testing.T) {
	s := Schedule{Seed: 7, BaseEvents: 100, Jitter: 0.25}
	for e := uint64(1); e <= 200; e++ {
		n := s.EpochLen(e)
		if n < 75 || n > 125 {
			t.Fatalf("epoch %d length %d outside jitter band [75,125]", e, n)
		}
	}
	// Defaults: base 256, jitter 0.25; negative jitter disables it.
	d := Schedule{Seed: 1}
	if n := d.EpochLen(1); n < 192 || n > 320 {
		t.Errorf("default epoch length %d outside [192,320]", n)
	}
	fixed := Schedule{Seed: 1, BaseEvents: 50, Jitter: -1}
	for e := uint64(1); e <= 5; e++ {
		if fixed.EpochLen(e) != 50 {
			t.Error("negative jitter should pin epochs to BaseEvents")
		}
	}
}

func TestScheduleBoundaryMonotone(t *testing.T) {
	s := Schedule{Seed: 11, BaseEvents: 64, Jitter: 0.5}
	if s.Boundary(0) != 0 {
		t.Error("Boundary(0) != 0")
	}
	prev := 0
	for e := uint64(1); e <= 50; e++ {
		b := s.Boundary(e)
		if b <= prev {
			t.Fatalf("Boundary(%d)=%d not strictly above Boundary(%d)=%d", e, b, e-1, prev)
		}
		if b != prev+s.EpochLen(e) {
			t.Fatalf("Boundary(%d) inconsistent with EpochLen", e)
		}
		prev = b
	}
}
