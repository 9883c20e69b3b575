//go:build !race

package fs_test

const raceEnabled = false
