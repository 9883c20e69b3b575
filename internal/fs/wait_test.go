package fs

// An open never polls. The CSS polls the using site last instead of
// skipping it on a stale USVV, and a directory's modify open waits at
// the CSS for the directory update that holds its slot instead of
// failing busy. These tests park real waiters, so run them under -race.

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
)

var rootID = storage.FileID{FG: 1, Inode: RootInode}

// TestOpenPollsUsingSiteLast: the US's USVV predates a commit made at the
// US since, and every other replica is stale. Optimization 1 declines on
// the vector, the CSS's own copy is stale, the other replica refuses —
// and the US's copy, the latest, must still be polled rather than skipped.
func TestOpenPollsUsingSiteLast(t *testing.T) {
	ks := bootSites(t, 3)
	k1, k2, k3 := ks[0], ks[1], ks[2]
	cr := DefaultCred("tester")
	f, err := k2.Create(cr, "/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	for _, k := range ks {
		k.DrainPropagation()
	}
	stale := k2.localGetVV(id).VV

	// A commit at site 2 (its own SS); sites 1 and 3 only queue the pull.
	w, err := k2.OpenID(id, ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Kernel{k1, k3} {
		if vv := k.localGetVV(id).VV; !vv.Equal(stale) {
			t.Fatalf("site %d already holds %v; the test needs it stale at %v", k.site, vv, stale)
		}
	}

	resp, err := k1.handleOpen(2, &openReq{ID: id, Mode: ModeRead, US: 2, USVV: stale})
	if err != nil {
		t.Fatalf("read open with a stale USVV whose US holds the latest copy: %v", err)
	}
	if resp.SS != 2 {
		t.Errorf("served by site %d, want the using site 2", resp.SS)
	}
	if _, err := k2.handleClose(2, &closeReq{ID: id, US: 2, Mode: ModeRead}); err != nil {
		t.Fatal(err)
	}
}

// awaitParked returns once some goroutine waits in handleOpen for a
// writer slot.
func awaitParked(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if parked() {
			return
		}
	}
	t.Fatal("no open parked for the writer slot")
}

// parked reports whether an open waits at a CSS for a writer slot now.
func parked() bool {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "fs.(*Kernel).handleOpen") {
			return true
		}
	}
	return false
}

// await returns what done delivers, failing the test if nothing arrives.
func await(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still waiting after 5s", what)
		return nil
	}
}

// createAsync creates path at k on its own goroutine; the directory
// insert is the updateDir that waits.
func createAsync(k *Kernel, path string) <-chan error {
	done := make(chan error, 1)
	go func() {
		f, err := k.Create(DefaultCred("tester"), path, storage.TypeRegular, 0644)
		if err == nil {
			err = f.Close()
		}
		done <- err
	}()
	return done
}

func TestDirUpdateWaitsForWriter(t *testing.T) {
	all := []SiteID{1, 2, 3}
	// updating opens the root directory for modification at k the way a
	// directory update does: a registration a directory's modify open
	// waits for.
	updating := func(t *testing.T, k *Kernel) *File {
		t.Helper()
		w, _, _, err := k.openID(rootID, ModeModify, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// holdRoot boots three sites (site 1 is the CSS) with a directory
	// update of the root in progress at site 2.
	holdRoot := func(t *testing.T, ft Features) ([]*Kernel, *File) {
		ks := bootFeatureSites(t, 3, ft)
		return ks, updating(t, ks[1])
	}
	exists := func(t *testing.T, k *Kernel, path string, want bool) {
		t.Helper()
		_, err := k.Resolve(DefaultCred("tester"), path)
		if got := err == nil; got != want {
			t.Errorf("%s exists = %v (%v), want %v", path, got, err, want)
		}
	}

	t.Run("granted when the holder closes", func(t *testing.T) {
		ks, w := holdRoot(t, Features{})
		done := createAsync(ks[2], "/x")
		awaitParked(t)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := await(t, done, "create behind a closed writer"); err != nil {
			t.Fatalf("create behind a closed writer: %v", err)
		}
		exists(t, ks[2], "/x", true)
	})

	// The holder's close reaches its storage site (itself) but every
	// transmission of the fs.ssclose that would free the slot is lost.
	// The holder then tells the CSS itself.
	t.Run("granted when the holder's fs.ssclose is lost", func(t *testing.T) {
		ks, w := holdRoot(t, Features{})
		if w.ss != 2 {
			t.Fatalf("the holder's storage site is %d, want itself (2)", w.ss)
		}
		done := createAsync(ks[2], "/x")
		awaitParked(t)
		nw := ks[0].node.Network()
		lost := Cut{At: NthRequest(2, 1, mSSClose.Name, 1), Drop: 8} // every transmission of one Call
		var err error
		lost.Run(nw, func() { err = w.Close() })
		if err != nil {
			t.Fatal(err)
		}
		if err := await(t, done, "create behind a writer whose close was lost"); err != nil {
			t.Fatalf("create behind a writer whose close was lost: %v", err)
		}
		if got := nw.Stats().MsgsDropped; got != int64(lost.Drop) {
			t.Errorf("%d messages dropped, want the %d fs.ssclose transmissions", got, lost.Drop)
		}
		exists(t, ks[2], "/x", true)
	})

	t.Run("failed when cleanup removes the waiter's site", func(t *testing.T) {
		ks, w := holdRoot(t, Features{})
		done := createAsync(ks[2], "/x")
		awaitParked(t)
		ks[0].CleanupAfterPartitionChange([]SiteID{1, 2})
		if err := await(t, done, "create from a site cleanup removed"); !errors.Is(err, ErrBusy) {
			t.Fatalf("create from a site cleanup removed: %v, want ErrBusy", err)
		}
		ks[0].CleanupAfterPartitionChange(all)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		exists(t, ks[0], "/x", false)
	})

	t.Run("granted when cleanup removes the holder's site", func(t *testing.T) {
		ks, w := holdRoot(t, Features{})
		done := createAsync(ks[2], "/x")
		awaitParked(t)
		ks[0].CleanupAfterPartitionChange([]SiteID{1, 3})
		if err := await(t, done, "create behind a writer cleanup removed"); err != nil {
			t.Fatalf("create behind a writer cleanup removed: %v", err)
		}
		exists(t, ks[2], "/x", true)
		ks[0].CleanupAfterPartitionChange(all)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})

	// A user's modify open of a directory may wait out the update that
	// holds the slot, and is then refused: no user holds a directory's
	// slot, so no create in it can wait for its own process.
	t.Run("a user's modify open of a directory is ErrIsDir", func(t *testing.T) {
		ks, w := holdRoot(t, Features{})
		done := make(chan error, 2)
		go func() {
			_, err := ks[2].OpenID(rootID, ModeModify)
			done <- err
			_, err = ks[2].Open(DefaultCred("tester"), "/", ModeModify)
			done <- err
		}()
		awaitParked(t)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, what := range []string{"OpenID", "Open"} {
			if err := await(t, done, what+" of a directory behind its update"); !errors.Is(err, ErrIsDir) {
				t.Fatalf("%s of a directory behind its update: %v, want ErrIsDir", what, err)
			}
		}
		if err := await(t, createAsync(ks[1], "/x"), "create after the refusals"); err != nil {
			t.Fatalf("create after the refusals: %v", err)
		}
	})

	// The wait is the directory's alone: a file's modify open behind a
	// live writer is refused at once (§2.3.1).
	t.Run("a file's modify open behind a live writer is ErrBusy at once", func(t *testing.T) {
		ks := bootSites(t, 3)
		f, err := ks[1].Create(DefaultCred("tester"), "/f", storage.TypeRegular, 0644)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := ks[2].OpenID(f.ID(), ModeModify)
			done <- err
		}()
		if err := await(t, done, "a file's modify open behind a live writer"); !errors.Is(err, ErrBusy) {
			t.Fatalf("a file's modify open behind a live writer: %v, want ErrBusy", err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})

	// chmod opens the directory for modification as the kernel: it waits
	// for the update and then changes the mode.
	t.Run("a chmod of a directory waits for its update", func(t *testing.T) {
		ks, w := holdRoot(t, Features{})
		done := make(chan error, 1)
		go func() { done <- ks[2].Chmod(DefaultCred("tester"), "/", 0700) }()
		awaitParked(t)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := await(t, done, "chmod behind a directory update"); err != nil {
			t.Fatalf("chmod behind a directory update: %v", err)
		}
		if st, err := ks[2].Stat(DefaultCred("tester"), "/"); err != nil || st.Mode != 0700 {
			t.Fatalf("after the chmod / is %+v, %v; want mode 0700", st, err)
		}
	})

	// A retransmitted open re-executed without dedup meets the slot its
	// first execution claimed: the registration is its own, in flight at
	// the using site, and no release of it could ever come.
	t.Run("a waiter never parks behind its own registration", func(t *testing.T) {
		k := bootSolo(t)
		const serial = 1001
		k.mu.Lock()
		k.inflightSerials[serial] = true // a directory update's open
		k.mu.Unlock()
		req := openReq{ID: rootID, Mode: ModeModify, US: 1, Serial: serial}
		first := req
		if _, err := k.handleOpen(1, &first); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := k.handleOpen(1, &req)
			done <- err
		}()
		if err := await(t, done, "re-executed open"); !errors.Is(err, ErrBusy) {
			t.Fatalf("re-executed open: %v, want ErrBusy", err)
		}
	})
}

// TestLostCreateReplyFreesWaitingUpdate: site 1 creates /d/x/y while
// site 2's Mkdir("/d/x") is between the CSS's entry of the name and the
// reply, so the directory insert parks at the CSS behind site 2's
// registration, which a recall finds live. Every transmission of the
// reply is then lost. Site 2 never learns the directory's inode, so it
// finds the directory by its name and gives the slot back, as a modify
// open whose reply is lost does, and the parked create finishes.
func TestLostCreateReplyFreesWaitingUpdate(t *testing.T) {
	ks := bootSites(t, 3)
	k1, k2 := ks[0], ks[1]
	cred := DefaultCred("tester")
	if err := k1.Mkdir(cred, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}
	nw := k1.node.Network()
	// Every reply to site 2's fs.create is lost. The observer runs on the
	// parked create's goroutine too, which sends no fs.propnotify before
	// it is freed.
	var once sync.Once
	var done <-chan error
	lost := 0
	nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
		switch {
		case p.Kind == netsim.PointReply && p.To == 2 && p.Method == mCreate.Name && lost < 8:
			lost++
			return netsim.FaultDropResponse
		case p.Kind == netsim.PointRequest && p.From == 1 && p.Method == mPropNotify.Name:
			once.Do(func() {
				done = createAsync(k1, "/d/x/y")
				awaitParked(t)
			})
		}
		return netsim.FaultNone
	})
	err := k2.Mkdir(cred, "/d/x", 0755)
	nw.SetObserver(nil)
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("Mkdir with every reply lost: %v, want ErrTimeout", err)
	}
	if done == nil {
		t.Fatal("the CSS sent no fs.propnotify while site 2's create was in flight")
	}
	if err := await(t, done, "create in the directory whose create reply was lost"); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}
	for _, f := range FsckCluster(ks, FsckOptions{}) {
		t.Errorf("fsck: %v", f)
	}
}
