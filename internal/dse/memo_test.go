package dse

import (
	"sync"
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/rng"
	"clrdse/internal/schedule"
)

// TestEvaluatorCollisionConcurrent forces every genome onto one memo
// key, so the evaluator must tell genomes apart with Equal, while eight
// goroutines race to evaluate the same fresh genomes. Every caller must
// get its own genome's metrics — every summary field equal to a direct
// evaluation's — and Evals must count each distinct genome once. Run it
// under -race.
func TestEvaluatorCollisionConcurrent(t *testing.T) {
	p := testProblem(t, 20, false)
	ev := NewEvaluator(p)
	ev.hash = func(*mapping.Mapping) uint64 { return 3 }
	r := rng.New(71)
	genomes := make([]*mapping.Mapping, 12)
	want := make([]*schedule.Result, len(genomes))
	direct := &schedule.Evaluator{Space: p.Space, Env: p.Env}
	for i := range genomes {
		genomes[i] = p.Space.Random(r)
		var err error
		if want[i], err = direct.Evaluate(genomes[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for k := range genomes {
					i := (k + w) % len(genomes)
					// Clones are distinct pointers with equal genes.
					got, err := ev.Evaluate(genomes[i].Clone())
					if err != nil {
						t.Error(err)
						return
					}
					if *got != want[i].Summary {
						t.Errorf("worker %d: genome %d got another genome's schedule", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ev.Evals != len(genomes) {
		t.Errorf("Evals = %d, want %d distinct genomes", ev.Evals, len(genomes))
	}
}
