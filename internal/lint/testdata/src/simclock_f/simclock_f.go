// Package simclock_f is a locus-vet fixture: the test config lists it
// as a protocol package, so wall-clock uses below must be flagged.
package simclock_f

import "time"

func badNow() time.Time {
	return time.Now() // want "wall-clock time.Now in protocol package"
}

func badSleep() {
	time.Sleep(10 * time.Millisecond) // want "wall-clock time.Sleep in protocol package"
}

func badAfter() <-chan time.Time {
	return time.After(time.Second) // want "wall-clock time.After in protocol package"
}

func badTick() <-chan time.Time {
	return time.Tick(time.Second) // want "wall-clock time.Tick in protocol package"
}

func badNewTicker() *time.Ticker {
	return time.NewTicker(time.Second) // want "wall-clock time.NewTicker in protocol package"
}

func badNewTimer() *time.Timer {
	return time.NewTimer(time.Second) // want "wall-clock time.NewTimer in protocol package"
}

// Durations and conversions are fine: only clock reads and real-time
// scheduling are forbidden.
func okDuration(us int64) time.Duration {
	return time.Duration(us) * time.Microsecond
}

func okSuppressed() time.Time {
	return time.Now() //locus:vet-allow simclock fixture: sanctioned wall-clock read
}
