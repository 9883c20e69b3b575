package fs

// Handler-level tests of fs.recallwriter: the answers a using site gives
// when an open elsewhere recalls one of its writer registrations by name.

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// recallAt sends k the recall of its registration (id, serial) as a CSS
// would, through the handler.
func recallAt(t *testing.T, k *Kernel, id storage.FileID, serial uint64) *recallWriterResp {
	t.Helper()
	resp, err := k.handleRecallWriter(1, &recallWriterReq{ID: id, Serial: serial})
	if err != nil {
		t.Fatalf("recall (%v, serial %d): %v", id, serial, err)
	}
	return resp
}

func TestRecallWriterAnswers(t *testing.T) {
	// The grant-in-flight race: the CSS has recorded the writer
	// registration, its reply has not reached the using site yet, and a
	// competing open recalls the registration. Site 3 holds a read
	// delegation, so the CSS's revoke round (sent after it records site
	// 2's registration, before it replies) is the moment to intervene.
	t.Run("in-flight serial is live", func(t *testing.T) {
		ks := bootSites(t, 3)
		k1, k2, k3 := ks[0], ks[1], ks[2]
		f, err := k1.Create(DefaultCred("tester"), "/f", storage.TypeRegular, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		id := f.ID()
		r, err := k3.OpenID(id, ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		var fired bool
		var inflight *recallWriterResp
		var competing error
		nw := k1.node.Network()
		nw.SetTrace(func(_, _ SiteID, method string) {
			if fired || method != mLeaseRevoke.Name {
				return
			}
			fired = true
			k1.mu.Lock()
			serial := k1.cssState[id].writerSerial
			k1.mu.Unlock()
			inflight = recallAt(t, k2, id, serial)
			_, competing = k3.OpenID(id, ModeModify)
		})
		w, err := k2.OpenID(id, ModeModify)
		nw.SetTrace(nil)
		if err != nil {
			t.Fatalf("modify open at site 2: %v", err)
		}
		if !fired {
			t.Fatal("the CSS sent no revoke round while site 2's open was in flight")
		}
		if !inflight.Live {
			t.Error("a registration whose open is in flight answered not live")
		}
		if !errors.Is(competing, ErrBusy) {
			t.Errorf("competing modify open during the grant: %v, want ErrBusy", competing)
		}
		k1.mu.Lock()
		holder, serial := k1.cssState[id].writerUS, k1.cssState[id].writerSerial
		k1.mu.Unlock()
		if holder != 2 || serial != w.wserial {
			t.Errorf("CSS writer record = (site %d, serial %d), want (2, %d)", holder, serial, w.wserial)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("open handle with the serial is live", func(t *testing.T) {
		k, id, _ := solo4(t)
		w, err := k.OpenID(id, ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if !recallAt(t, k, id, w.wserial).Live {
			t.Error("a registration with an open modify handle answered not live")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if recallAt(t, k, id, w.wserial).Live {
			t.Error("a closed registration answered live")
		}
	})

	// A site whose own registration A was stranded opens again as B. The
	// CSS recalls A while B is in flight; B must not keep A alive, or a
	// site could never reclaim its own stale lock.
	t.Run("other serial from the same site is not live", func(t *testing.T) {
		k, id, _ := solo4(t)
		k.mu.Lock()
		stranded := k.openSerial + 1000
		k.mu.Unlock()
		if _, err := k.handleOpen(1, &openReq{ID: id, Mode: ModeModify, US: 1, Serial: stranded}); err != nil {
			t.Fatalf("open A: %v", err)
		}
		w, err := k.OpenID(id, ModeModify)
		if err != nil {
			t.Fatalf("open B with A stranded: %v", err)
		}
		if recallAt(t, k, id, stranded).Live {
			t.Error("stranded registration A answered live while B is open")
		}
		if !recallAt(t, k, id, w.wserial).Live {
			t.Error("registration B answered not live")
		}
		k.mu.Lock()
		serial := k.cssState[id].writerSerial
		k.mu.Unlock()
		if serial != w.wserial {
			t.Errorf("CSS writer serial = %d, want B's %d", serial, w.wserial)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
