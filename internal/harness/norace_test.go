//go:build !race

package harness

// raceEnabled reports a race-detector build, where tests keep their
// concurrent runs but trim repetitions the plain suite already covers.
const raceEnabled = false
