package fs_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fs"
)

// TestNoCopySiteWaitsForDirSlot: site 3 of noCopyCluster stores no pack,
// and every kernel's partition view holds it from boot on. Its unlink in
// /d, while site 1 holds /d's writer slot, waits at the CSS for the slot,
// as an fs.dirop from any site in the partition does, and then succeeds.
// A CSS whose view left site 3 out would refuse it at once with ErrBusy.
func TestNoCopySiteWaitsForDirSlot(t *testing.T) {
	c := noCopyCluster(t, fs.Features{})
	d, err := c.K(1).Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.K(1).OpenForUpdate(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.K(3).Unlink(cred(), "/d/f") }()
	for deadline := time.Now().Add(5 * time.Second); !fs.Parked(); time.Sleep(time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("the unlink returned %v while site 1 held /d's slot, want it to wait", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the unlink neither waited for /d's slot nor returned")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the unlink behind a closed writer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the unlink still waits after the writer closed")
	}
	if _, err := c.K(3).Stat(cred(), "/d/f"); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf(`Stat("/d/f") after the unlink = %v, want ErrNotFound`, err)
	}
}
