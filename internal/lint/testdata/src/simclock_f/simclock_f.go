// Package simclock_f is a locus-vet fixture: the test points the
// production simclock row at it, so wall-clock uses below must be
// flagged.
package simclock_f

import "time"

func badNow() time.Time {
	return time.Now() // want "time.Now in package simclock_f: protocol packages run on the simulated clock"
}

func badSleep() {
	time.Sleep(10 * time.Millisecond) // want "time.Sleep in package simclock_f: protocol packages run on the simulated clock"
}

func badAfter() <-chan time.Time {
	return time.After(time.Second) // want "time.After in package simclock_f: protocol packages run on the simulated clock"
}

func badTick() <-chan time.Time {
	return time.Tick(time.Second) // want "time.Tick in package simclock_f: protocol packages run on the simulated clock"
}

func badNewTicker() *time.Ticker {
	return time.NewTicker(time.Second) // want "time.NewTicker in package simclock_f: protocol packages run on the simulated clock"
}

func badNewTimer() *time.Timer {
	return time.NewTimer(time.Second) // want "time.NewTimer in package simclock_f: protocol packages run on the simulated clock"
}

// Durations and conversions are fine: only clock reads and real-time
// scheduling are forbidden.
func okDuration(us int64) time.Duration {
	return time.Duration(us) * time.Microsecond
}

func okSuppressed() time.Time {
	return time.Now() //locus:vet-allow simclock fixture: sanctioned wall-clock read
}
