//go:build race

package main

// raceEnabled trims the smoke tests under the race detector, which
// slows the tier's data-region sweeps and the byte-level chunkers about
// tenfold.
const raceEnabled = true
