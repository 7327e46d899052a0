//go:build race

package mapping

// raceEnabled reports a race-detector build. The detector makes
// sync.Pool drop a random share of Puts, so the allocation pins over
// pooled scratch are skipped under it.
const raceEnabled = true
