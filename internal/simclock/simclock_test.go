package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestAdvanceAndNow(t *testing.T) {
	t.Parallel()
	c := New()
	if c.NowUs() != 0 {
		t.Fatalf("fresh clock reads %d, want 0", c.NowUs())
	}
	if got := c.Advance(1500); got != 1500 {
		t.Fatalf("Advance returned %d, want 1500", got)
	}
	if got := c.Now(); !got.Equal(Epoch.Add(1500 * time.Microsecond)) {
		t.Fatalf("Now = %v, want epoch+1500us", got)
	}
	if got := c.Elapsed(); got != 1500*time.Microsecond {
		t.Fatalf("Elapsed = %v, want 1.5ms", got)
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	t.Parallel()
	c := New()
	c.Advance(100)
	if got := c.Advance(-50); got != 100 {
		t.Fatalf("negative advance moved clock to %d, want 100", got)
	}
}

func TestAdvanceConcurrent(t *testing.T) {
	t.Parallel()
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.NowUs(); got != 8000 {
		t.Fatalf("concurrent advances lost updates: %d, want 8000", got)
	}
}

// TestBackoffMovesNoTime: virtual time moves on charged cost only, so a
// wait that burns its whole retry budget leaves the clock where it was.
func TestBackoffMovesNoTime(t *testing.T) {
	t.Parallel()
	c := New()
	for i := 0; i < 10000; i++ {
		c.Backoff()
	}
	if got := c.NowUs(); got != 0 {
		t.Fatalf("10,000 Backoffs advanced the clock to %d, want 0", got)
	}
}
