//go:build !race

package smsim_test

// raceEnabled reports a race-detector build.
const raceEnabled = false
