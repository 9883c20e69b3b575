package fs

// Handler-level tests of fs.recallwriter: the answers a using site gives
// when an open elsewhere recalls one of its writer registrations by name.

import (
	"errors"
	"testing"

	"repro/internal/netsim"
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
		nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
			if fired || p.Kind != netsim.PointRequest || p.Method != mLeaseRevoke.Name {
				return netsim.FaultNone
			}
			fired = true
			k1.mu.Lock()
			serial := k1.cssState[id].writerSerial
			k1.mu.Unlock()
			inflight = recallAt(t, k2, id, serial)
			_, competing = k3.OpenID(id, ModeModify)
			return netsim.FaultNone
		})
		w, err := k2.OpenID(id, ModeModify)
		nw.SetObserver(nil)
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

// TestCreateRegistrationLiveWhileReplyInFlight: a create registers the
// creating site as the new file's writer at the CSS, and that
// registration is live from the moment the request leaves, as a modify
// open's is. Site 3's modify open of /d/x, run at the CSS's first
// fs.propnotify of site 2's create, when the name is entered and the
// reply not yet sent, recalls the registration: it must find it live
// and fail with ErrBusy, not take the file over, and site 2's write and
// close must then succeed.
func TestCreateRegistrationLiveWhileReplyInFlight(t *testing.T) {
	ks := bootSites(t, 3)
	k1, k2, k3 := ks[0], ks[1], ks[2]
	cred := DefaultCred("tester")
	if err := k1.Mkdir(cred, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}

	var fired bool
	var foreign error
	nw := k1.node.Network()
	nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
		if fired || p.Kind != netsim.PointRequest || p.From != 1 || p.Method != mPropNotify.Name {
			return netsim.FaultNone
		}
		fired = true
		r, err := k1.Resolve(cred, "/d/x")
		if err != nil {
			t.Errorf("resolve /d/x at the CSS during the create: %v", err)
			return netsim.FaultNone
		}
		var f *File
		if f, foreign = k3.OpenID(r.ID, ModeModify); foreign == nil {
			f.Close() //nolint:errcheck
		}
		return netsim.FaultNone
	})
	w, err := k2.Create(cred, "/d/x", storage.TypeRegular, 0644)
	nw.SetObserver(nil)
	if err != nil {
		t.Fatalf("create at site 2: %v", err)
	}
	if !fired {
		t.Fatal("the CSS sent no fs.propnotify while site 2's create was in flight")
	}
	if !errors.Is(foreign, ErrBusy) {
		t.Errorf("site 3's modify open during the create's reply: %v, want ErrBusy", foreign)
	}
	if _, err := w.WriteAt([]byte("created"), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close of the created file: %v", err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}
	for _, f := range FsckCluster(ks, FsckOptions{}) {
		t.Errorf("fsck: %v", f)
	}
}
