//go:build race

package fleet

// raceEnabled reports a race-detector build, under which the codec's
// allocation pins are skipped.
const raceEnabled = true
