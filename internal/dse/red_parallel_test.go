package dse

import (
	"strconv"
	"testing"
)

// sameDatabase requires two databases to be byte-identical: same
// points in the same order with the same metrics and genomes.
func sameDatabase(t *testing.T, label string, a, b *Database) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d points vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if pa.ID != pb.ID || pa.FromReD != pb.FromReD ||
			pa.MakespanMs != pb.MakespanMs || pa.Reliability != pb.Reliability ||
			pa.EnergyMJ != pb.EnergyMJ || pa.PeakPowerW != pb.PeakPowerW ||
			pa.MTTFMs != pb.MTTFMs {
			t.Fatalf("%s: point %d metrics differ:\n%+v\n%+v", label, i, pa, pb)
		}
		if !pa.M.Equal(pb.M) {
			t.Fatalf("%s: point %d genome differs", label, i)
		}
	}
}

// TestRunReDParallelMatchesSerial proves the worker-pool ReD stage is
// deterministic: any worker count — of per-seed sub-optimisations and
// of evaluation workers inside each sub-GA, including more workers
// than the population — must produce the byte-identical database a
// serial run does, including the exploration statistics.
func TestRunReDParallelMatchesSerial(t *testing.T) {
	p := testProblem(t, 20, false)
	base, err := RunBase(p, smallGA(1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, gaWorkers int) (*Database, Stats) {
		var st Stats
		p.Stats = &st
		rp := smallReD(2)
		rp.Workers = workers
		rp.GA.Workers = gaWorkers
		db, err := RunReD(p, base, rp)
		if err != nil {
			t.Fatal(err)
		}
		p.Stats = nil
		return db, st
	}
	serial, serialStats := run(1, 1)
	for _, gaWorkers := range []int{0, 1, 3, 64} {
		for _, workers := range []int{1, 2, 4, 0} {
			if workers == 1 && gaWorkers == 1 {
				continue
			}
			label := "workers=" + strconv.Itoa(workers) + " ga.workers=" + strconv.Itoa(gaWorkers)
			par, parStats := run(workers, gaWorkers)
			sameDatabase(t, label, serial, par)
			if serialStats.ReDEvals != parStats.ReDEvals || serialStats.ReDExtras != parStats.ReDExtras {
				t.Errorf("%s: stats differ: serial %+v, parallel %+v", label, serialStats, parStats)
			}
		}
	}
}
