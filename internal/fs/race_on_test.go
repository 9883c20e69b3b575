//go:build race

package fs_test

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, on purpose, so the page pool has no steady state and
// the allocation pins do not apply.
const raceEnabled = true
