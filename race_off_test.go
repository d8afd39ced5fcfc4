//go:build !race

package repro_test

// raceEnabled reports whether the race detector is compiled in; the
// static reachability check skips under it, since it runs no concurrent
// code and type-checking the module under the detector only costs time.
const raceEnabled = false
