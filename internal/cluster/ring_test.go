package cluster

import (
	"fmt"
	"testing"
)

// keys generates n distinct device-ID-shaped keys.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dev-%d", i)
	}
	return out
}

func TestNewRingErrors(t *testing.T) {
	cases := []struct {
		name    string
		members []string
	}{
		{"empty", nil},
		{"duplicate", []string{"a", "b", "a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRing(tc.members, 0); err == nil {
				t.Fatalf("NewRing(%v) accepted invalid membership", tc.members)
			}
		})
	}
}

func TestRingOwnershipDeterministic(t *testing.T) {
	// Ownership must be a pure function of the member set: every node
	// and every client derives the same map regardless of the order
	// membership was discovered in.
	orders := [][]string{
		{"node-0", "node-1", "node-2"},
		{"node-2", "node-0", "node-1"},
		{"node-1", "node-2", "node-0"},
	}
	rings := make([]*Ring, len(orders))
	for i, m := range orders {
		r, err := NewRing(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	for _, k := range keys(500) {
		want := rings[0].Owner(k)
		for i := 1; i < len(rings); i++ {
			if got := rings[i].Owner(k); got != want {
				t.Fatalf("Owner(%q) differs across member orders: %q vs %q", k, want, got)
			}
		}
	}
	if rings[0].Version() != rings[1].Version() || rings[1].Version() != rings[2].Version() {
		t.Fatal("equal member sets produced different ring versions")
	}
}

func TestRingRemovalMovesOnlyDepartedKeys(t *testing.T) {
	// The consistent-hashing contract, exactly: dropping one member
	// reassigns that member's keys and no others. This is what bounds
	// a node failure's blast radius to ~1/N of the fleet.
	cases := []struct {
		name    string
		members []string
		drop    string
	}{
		{"three-drop-mid", []string{"node-0", "node-1", "node-2"}, "node-1"},
		{"three-drop-last", []string{"node-0", "node-1", "node-2"}, "node-2"},
		{"five-drop-one", []string{"a", "b", "c", "d", "e"}, "c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := NewRing(tc.members, 0)
			if err != nil {
				t.Fatal(err)
			}
			var rest []string
			for _, m := range tc.members {
				if m != tc.drop {
					rest = append(rest, m)
				}
			}
			reduced, err := NewRing(rest, 0)
			if err != nil {
				t.Fatal(err)
			}
			ks := keys(2000)
			moved := 0
			for _, k := range ks {
				before, after := full.Owner(k), reduced.Owner(k)
				if before == tc.drop {
					moved++
					if after == tc.drop {
						t.Fatalf("key %q still owned by removed member %q", k, tc.drop)
					}
					continue
				}
				if after != before {
					t.Fatalf("key %q moved %q -> %q though %q departed", k, before, after, tc.drop)
				}
			}
			// The departed member's share should be near 1/N — generous
			// bounds, since only gross imbalance matters here.
			frac := float64(moved) / float64(len(ks))
			lo, hi := 0.4/float64(len(tc.members)), 2.0/float64(len(tc.members))
			if frac < lo || frac > hi {
				t.Errorf("removed member owned %.1f%% of keys, want within [%.1f%%, %.1f%%]",
					frac*100, lo*100, hi*100)
			}
			if full.Version() == reduced.Version() {
				t.Error("different member sets share a ring version")
			}
		})
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"node-0", "node-1", "node-2"}
	r, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	ks := keys(3000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		frac := float64(counts[m]) / float64(len(ks))
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %q owns %.1f%% of keys; virtual nodes should keep shares near 33%%", m, frac*100)
		}
	}
}

func TestRingVersionDependsOnVNodes(t *testing.T) {
	a, err := NewRing([]string{"x", "y"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"x", "y"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version() == b.Version() {
		t.Fatal("different vnode counts share a ring version (ownership maps differ)")
	}
}
