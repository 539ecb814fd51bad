//go:build race

package smsim_test

// raceEnabled reports a race-detector build. It slows this
// single-goroutine model about tenfold and can find no race in it.
const raceEnabled = true
