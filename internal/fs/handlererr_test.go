package fs_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestCreateRefusedByLostBirthIsOneExchange loses every transmission of
// the CSS's fs.sscreate to the birth pack during a create from site 2.
// The CSS answers site 2's fs.create with that timeout; the answer is a
// refusal, not a lost message of site 2's own, so site 2 sends its
// fs.create once.
func TestCreateRefusedByLostBirthIsOneExchange(t *testing.T) {
	c := newCluster(t, 3) // CSS = site 1
	settle(t, c)
	lost := fs.Cut{At: fs.NthRequest(1, 2, "fs.sscreate", 1), Drop: 8} // every transmission of one Call
	before := c.Net.Stats()
	var err error
	lost.Run(c.Net, func() { _, err = c.K(2).Create(cred(), "/b", storage.TypeRegular, 0644) })
	d := c.Net.Stats().Sub(before)
	if !errors.Is(err, netsim.ErrTimeout) || !strings.Contains(err.Error(), "fs.sscreate 1 -> 2") {
		t.Fatalf("create whose birth pack is cut off: %v, want the CSS's fs.sscreate timeout", err)
	}
	if d.ByMethod["fs.create"] != 2 {
		t.Errorf("%d fs.create messages, want one exchange (2): the CSS's answer was retried (%v)", d.ByMethod["fs.create"], d.ByMethod)
	}
	if d.MsgsDropped != int64(lost.Drop) {
		t.Errorf("%d messages dropped, want the %d fs.sscreate transmissions", d.MsgsDropped, lost.Drop)
	}
}
