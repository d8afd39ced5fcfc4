//go:build race

package repro_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
