package fs_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fs"
)

func TestPropagationDaemonDrivesReplication(t *testing.T) {
	c := newCluster(t, 3)
	for _, s := range c.Sites() {
		k := c.K(s)
		k.StartPropagationDaemon(time.Millisecond)
		defer k.StopPropagationDaemon()
	}
	writeFile(t, c.K(1), "/f", []byte("auto"))

	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for s := fs.SiteID(1); s <= 3; s++ {
			f, err := c.K(s).Open(cred(), "/f", fs.ModeRead)
			if err != nil {
				ok = false
				break
			}
			d, err := f.ReadAll()
			f.Close() //nolint:errcheck
			if err != nil || string(d) != "auto" || f.SS() != s {
				ok = false
				break
			}
		}
		if ok {
			return // every site serves its own current copy
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not replicate /f to all sites")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPropagationDaemonIdempotentStartStop(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	k.StartPropagationDaemon(time.Millisecond)
	k.StartPropagationDaemon(time.Millisecond) // no double start
	k.StopPropagationDaemon()
	k.StopPropagationDaemon() // no double close panic
}

// TestStopPropagationDaemonJoins is the runtime regression test for the
// daemon-join fix: StopPropagationDaemon must not return while the
// daemon goroutine can still be running a drain. Many start/stop cycles
// amplify any leak into a visible goroutine-count rise; the goroutinejoin
// analyzer (TestRepositoryIsClean in internal/lint) guards the same
// propWG wiring statically.
func TestStopPropagationDaemonJoins(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k.StartPropagationDaemon(time.Millisecond)
		k.StopPropagationDaemon()
	}
	// Every stop joined its daemon, so no cycle can leave a goroutine
	// behind; allow a little slack for runtime helpers.
	if n := runtime.NumGoroutine(); n > base+3 {
		t.Fatalf("goroutines grew from %d to %d across start/stop cycles: daemon not joined", base, n)
	}
}
