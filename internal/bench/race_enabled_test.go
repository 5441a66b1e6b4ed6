//go:build race

package bench

// raceEnabled shrinks the slowest sweeps (see raceSized), which the
// race detector slows several-fold.
const raceEnabled = true
