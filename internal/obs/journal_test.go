package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestJournalWraparound(t *testing.T) {
	cases := []struct {
		name      string
		cap       int
		appends   int
		wantLen   int
		wantFirst uint64 // Seq of the oldest retained entry
	}{
		{"empty", 4, 0, 0, 0},
		{"partial", 4, 3, 3, 1},
		{"exact", 4, 4, 4, 1},
		{"wrap by one", 4, 5, 4, 2},
		{"wrap twice", 4, 12, 4, 9},
		{"cap one", 1, 7, 1, 7},
		{"default cap", 0, 3, 3, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := NewJournal(c.cap)
			if c.cap > 0 && j.Cap() != c.cap {
				t.Fatalf("Cap = %d, want %d", j.Cap(), c.cap)
			}
			if c.cap <= 0 && j.Cap() != DefaultJournalCap {
				t.Fatalf("Cap = %d, want default %d", j.Cap(), DefaultJournalCap)
			}
			for i := 1; i <= c.appends; i++ {
				j.Append(&Entry{Device: "d", Seq: uint64(i)})
			}
			if j.Total() != uint64(c.appends) {
				t.Fatalf("Total = %d, want %d", j.Total(), c.appends)
			}
			got := j.Snapshot()
			if len(got) != c.wantLen {
				t.Fatalf("Snapshot len = %d, want %d", len(got), c.wantLen)
			}
			for i, e := range got {
				if want := c.wantFirst + uint64(i); e.Seq != want {
					t.Errorf("entry %d Seq = %d, want %d (append order lost)", i, e.Seq, want)
				}
			}
		})
	}
}

// TestJournalConcurrent hammers a small ring with parallel writers
// while readers snapshot continuously; under -race this proves the
// lock-free claims, and afterwards the quiesced snapshot must hold
// exactly the last Cap entries with no tears.
func TestJournalConcurrent(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 500
		capacity   = 64
		readerScan = 200
	)
	j := NewJournal(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%d", w)
			for i := 1; i <= perWriter; i++ {
				j.Append(&Entry{Device: dev, Seq: uint64(i), From: w, To: i})
			}
		}(w)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for n := 0; n < readerScan; n++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range j.Snapshot() {
					// A torn entry would mix fields of two writers.
					if e.Device == "" || e.Seq == 0 {
						t.Error("torn or zero entry observed")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	if j.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", j.Total(), writers*perWriter)
	}
	snap := j.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("quiesced snapshot len = %d, want %d", len(snap), capacity)
	}
	for _, e := range snap {
		if e.Device == "" || e.Seq == 0 || e.Seq > perWriter {
			t.Errorf("corrupt quiesced entry: %+v", e)
		}
	}
}

// TestJournalExactlyOnceUnderCap: as long as the ring never wraps,
// every append is retained exactly once — the property the soak
// harness (soak.Run) asserts over a whole soak run.
func TestJournalExactlyOnceUnderCap(t *testing.T) {
	const writers, perWriter = 4, 100
	j := NewJournal(writers * perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%d", w)
			for i := 1; i <= perWriter; i++ {
				j.Append(&Entry{Device: dev, Seq: uint64(i)})
			}
		}(w)
	}
	wg.Wait()
	counts := make(map[string]int)
	for _, e := range j.Snapshot() {
		counts[fmt.Sprintf("%s/%d", e.Device, e.Seq)]++
	}
	if len(counts) != writers*perWriter {
		t.Fatalf("retained %d distinct decisions, want %d", len(counts), writers*perWriter)
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("decision %s retained %d times, want exactly once", k, n)
		}
	}
}
