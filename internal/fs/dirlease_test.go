package fs_test

// Read delegations on directories: a site that stores no copy of a
// directory is granted one on its look at it, answers its later looks
// from it with no message, and loses it to every update of the
// directory: another site's calls it back, its own drops it. Every test here runs on noCopyCluster,
// whose site 3 stores nothing and, under delegations, holds one on every
// directory its set-up searches looked at.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// dropRevokes runs run while the network loses every transmission of
// the next fs.leaserevoke call from site 1 to site 3: eight requests,
// all of a call's tries.
func dropRevokes(c *cluster.Cluster, run func()) {
	fs.Cut{At: fs.NthRequest(1, 3, "fs.leaserevoke", 1), Drop: 8}.Run(c.Net, run)
}

// resolveID is what path names, resolved at site 1.
func resolveID(t *testing.T, c *cluster.Cluster, path string) storage.FileID {
	t.Helper()
	r, err := c.K(1).Resolve(cred(), path)
	if err != nil {
		t.Fatal(err)
	}
	return r.ID
}

// TestLostRevokeRefusesModifyOpen: site 3, which stores no copy, holds a
// read delegation, and the network loses every transmission of the
// revoke that the CSS (site 1) sends it for a modify open. Site 3 is
// still reachable, so the open is refused with ErrBusy and the CSS keeps
// site 3 on record; the next modify open revokes it and commits, and
// site 3 then reads the new version. Were the open let through, site 3
// would read the old version for good: no propagation notification
// reaches a site that stores no copy. The file's delegation is a read
// open's, the directory's the one the look at /d was granted. The
// refusal wraps the lost revoke's hop, the CSS's own exchange, which is
// no cut of another opener's: that opener sends its request once, and
// the revoke round runs once.
func TestLostRevokeRefusesModifyOpen(t *testing.T) {
	// refused runs open at site opener with the revoke lost and checks
	// the refusal; it returns the messages the open sent, by method.
	refused := func(t *testing.T, c *cluster.Cluster, id storage.FileID, opener fs.SiteID, open func() error) map[string]int64 {
		t.Helper()
		before := c.Net.Stats()
		var err error
		dropRevokes(c, func() { err = open() })
		sent := c.Net.Stats().Sub(before).ByMethod
		var hop *netsim.Error
		if !errors.Is(err, fs.ErrBusy) || !errors.As(err, &hop) || hop.Method != "fs.leaserevoke" || hop.To != 3 {
			t.Fatalf("modify open with its revoke lost = %v, want ErrBusy wrapping the fs.leaserevoke hop to site 3", err)
		}
		if cut := netsim.IsCut(err, opener); cut != (opener == 1) {
			t.Errorf("IsCut(err, %d) = %v, want %v: the revoke is the CSS's (site 1's) own exchange", opener, cut, !cut)
		}
		if n := sent["fs.leaserevoke"]; n != 8 {
			t.Errorf("the open sent %d fs.leaserevoke messages, want 8: one call's transmissions", n)
		}
		if !slices.Contains(c.K(1).Delegates()[id], 3) {
			t.Fatalf("the CSS dropped site 3's unrevoked delegation: %v", c.K(1).Delegates()[id])
		}
		return sent
	}
	file := func(opener fs.SiteID) func(t *testing.T) {
		return func(t *testing.T) {
			c := noCopyCluster(t, fs.Features{})
			id := resolveID(t, c, "/d/f")
			if got := readFile(t, c.K(3), "/d/f"); string(got) != "f" {
				t.Fatalf("site 3 reads %q, want f", got)
			}
			if _, held := c.K(3).Delegations()[id]; !held {
				t.Fatal("site 3 holds no delegation on /d/f")
			}
			sent := refused(t, c, id, opener, func() error {
				_, err := c.K(opener).Open(cred(), "/d/f", fs.ModeModify)
				return err
			})
			if want := map[fs.SiteID]int64{1: 0, 2: 2}[opener]; sent["fs.open"] != want {
				t.Errorf("site %d sent %d fs.open messages, want %d", opener, sent["fs.open"], want)
			}
			rewriteFile(t, c.K(opener), "/d/f", []byte("N"))
			settle(t, c)
			if got := readFile(t, c.K(3), "/d/f"); string(got) != "N" {
				t.Errorf("site 3 reads %q after the commit, want N", got)
			}
			if findings := c.Fsck(true); len(findings) > 0 {
				t.Fatalf("fsck: %v", findings)
			}
		}
	}
	t.Run("file", file(1))
	t.Run("file opened at site 2", file(2))
	t.Run("directory", func(t *testing.T) {
		c := noCopyCluster(t, fs.Features{})
		d := resolveID(t, c, "/d")
		if _, held := c.K(3).Delegations()[d]; !held {
			t.Fatal("site 3 holds no delegation on /d")
		}
		refused(t, c, d, 1, func() error {
			_, err := c.K(1).Create(cred(), "/d/g", storage.TypeRegular, 0644)
			return err
		})
		writeFile(t, c.K(1), "/d/g", nil)
		settle(t, c)
		if names := listNames(t, c.K(3), "/d"); !slices.Contains(names, "g") {
			t.Errorf("site 3 lists /d as %v after the create, want g in it", names)
		}
		if findings := c.Fsck(true); len(findings) > 0 {
			t.Fatalf("fsck: %v", findings)
		}
	})
}

// listNames lists path at k, sorted.
func listNames(t *testing.T, k *fs.Kernel, path string) []string {
	t.Helper()
	entries, err := k.ReadDir(cred(), path)
	if err != nil {
		t.Fatalf("ReadDir(%q): %v", path, err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	slices.Sort(names)
	return names
}

// TestOwnDirOpDropsItsDelegations: site 3 holds delegations on /d and
// /d/f and unlinks /d/f. The CSS calls site 3 back on neither: it drops
// its records of them, and site 3 drops both delegations itself, so the
// unlink sends no fs.leaserevoke, and site 3's next open of /d/f finds
// no such name. Its next look at /d is granted a delegation again, at
// the version the unlink committed.
func TestOwnDirOpDropsItsDelegations(t *testing.T) {
	c := noCopyCluster(t, fs.Features{})
	k3 := c.K(3)
	d, f := resolveID(t, c, "/d"), resolveID(t, c, "/d/f")
	readFile(t, k3, "/d/f")
	held := k3.Delegations()
	if _, ok := held[d]; !ok {
		t.Fatal("site 3 holds no delegation on /d")
	}
	if _, ok := held[f]; !ok {
		t.Fatal("site 3 holds no delegation on /d/f")
	}
	before := c.Net.Stats()
	if err := k3.Unlink(cred(), "/d/f"); err != nil {
		t.Fatal(err)
	}
	if n := c.Net.Stats().Sub(before).ByMethod["fs.leaserevoke"]; n != 0 {
		t.Errorf("the unlink sent %d fs.leaserevoke messages, want 0", n)
	}
	held = k3.Delegations()
	if _, ok := held[d]; ok {
		t.Error("site 3 still holds a delegation on the directory it updated")
	}
	if _, ok := held[f]; ok {
		t.Error("site 3 still holds a delegation on the file it unlinked")
	}
	for id, sites := range c.K(1).Delegates() {
		if (id == d || id == f) && slices.Contains(sites, 3) {
			t.Errorf("the CSS still records site 3 as a delegate of %v", id)
		}
	}
	if _, err := k3.Open(cred(), "/d/f", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf(`Open("/d/f") after the unlink = %v, want ErrNotFound`, err)
	}
	listNames(t, k3, "/d")
	committed, err := c.K(1).Stat(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	if vv, ok := k3.Delegations()[d]; !ok || !vv.Equal(committed.VV) {
		t.Errorf("site 3's delegation on /d after its next look: %v (held %v), want one at %v", vv, ok, committed.VV)
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) > 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestDirOpsLeaveNoLeaseMarks: a site that unlinks or links files it
// holds read delegations on leaves nothing behind in its delegation
// bookkeeping that would decline a later grant. Site 3 stores no copy,
// site 2 one. After the links site 3 is granted a delegation on a linked
// file again, and fsck finds nothing.
func TestDirOpsLeaveNoLeaseMarks(t *testing.T) {
	c := noCopyCluster(t, fs.Features{})
	const n = 10
	for _, s := range []fs.SiteID{2, 3} {
		k := c.K(s)
		for i := 0; i < n; i++ {
			writeFile(t, c.K(1), fmt.Sprintf("/d/u%d", i), []byte("u"))
		}
		settle(t, c)
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/d/u%d", i)
			readFile(t, k, path)
			if _, held := k.Delegations()[resolveID(t, c, path)]; !held {
				t.Fatalf("site %d holds no delegation on %s", s, path)
			}
			if err := k.Unlink(cred(), path); err != nil {
				t.Fatal(err)
			}
		}
	}
	k3 := c.K(3)
	f := resolveID(t, c, "/d/f")
	for i := 0; i < n; i++ {
		readFile(t, k3, "/d/f")
		if err := k3.Link(cred(), "/d/f", fmt.Sprintf("/d/l%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	readFile(t, k3, "/d/f")
	if _, held := k3.Delegations()[f]; !held {
		t.Error("site 3 is not granted a delegation on /d/f after its links")
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) > 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestDirDelegationChurnCost pins the losing side of directory
// delegations, which no benchmark workload runs: site 1 creates /d/gN,
// site 3 stats it and lists /d, 50 times, and the propagation of /d to
// site 2 waits until the end. A round of the paper's protocol costs 13
// messages: the stat's looks at /, /d and gN and the listing's at / and
// /d (five fs.open exchanges), the create's fs.propnotify to site 2, and
// site 3's read of /d's changed page. Under delegations it costs 9: each
// create revokes site 3's delegation on /d (one fs.leaserevoke
// exchange), and the stat's look at /d is an exchange again, which
// re-grants it, beside its look at gN; the delegation on / answers the
// looks at it, and the one on /d the listing's.
func TestDirDelegationChurnCost(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"churn", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			const rounds = 50
			before := c.Net.Stats()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("/d/g%d", i)
				writeFile(t, c.K(1), name, nil)
				if _, err := c.K(3).Stat(cred(), name); err != nil {
					t.Fatal(err)
				}
				if names := listNames(t, c.K(3), "/d"); !slices.Contains(names, name[len("/d/"):]) {
					t.Fatalf("site 3 lists /d as %v, without %s", names, name)
				}
			}
			d := c.Net.Stats().Sub(before)
			settle(t, c)
			perRound := float64(d.Msgs) / rounds
			t.Logf("%.2f messages per round; in %d rounds, by method: %v", perRound, rounds, d.ByMethod)
			want := 9.0
			if rg.features.NoDelegations {
				want = 13
			}
			if perRound != want {
				t.Errorf("%.2f messages per round, want %v", perRound, want)
			}
		})
	}
}

// TestDirListingsUnderConcurrentUpdates: sites 2 and 3 list /d over and
// over while site 1 creates names in it and unlinks them two creates
// later. Site 2 stores a copy, site 3 none, and reads /d under a
// delegation that every update revokes before it commits. Every
// listing must include every name whose create returned before the
// listing began, unless its unlink began before the listing ended, and
// no name whose unlink returned before the listing began. (make
// flakegate runs it 200 times.)
func TestDirListingsUnderConcurrentUpdates(t *testing.T) {
	c := noCopyCluster(t, fs.Features{})
	const n = 16
	// state[i] is how far name i has got: 1 its create returned,
	// 2 its unlink began, 3 its unlink returned.
	var state [n]atomic.Int32
	name := func(i int) string { return fmt.Sprintf("n%02d", i) }
	var done atomic.Bool
	errs := make(chan error, 3)
	// The updates start once both sites have listed /d once.
	var wg, ready sync.WaitGroup
	wg.Add(1)
	ready.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		ready.Wait()
		for i := 0; i < n; i++ {
			f, err := c.K(1).Create(cred(), "/d/"+name(i), storage.TypeRegular, 0644)
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				errs <- fmt.Errorf("create %s: %v", name(i), err)
				return
			}
			state[i].Store(1)
			if j := i - 2; j >= 0 {
				state[j].Store(2)
				if err := c.K(1).Unlink(cred(), "/d/"+name(j)); err != nil {
					errs <- fmt.Errorf("unlink %s: %v", name(j), err)
					return
				}
				state[j].Store(3)
			}
		}
	}()
	for _, s := range []fs.SiteID{2, 3} {
		wg.Add(1)
		go func(k *fs.Kernel) {
			defer wg.Done()
			first := true
			defer func() {
				if first {
					ready.Done()
				}
			}()
			for listing := 0; listing == 0 || !done.Load(); listing++ {
				var began [n]int32
				for i := range began {
					began[i] = state[i].Load()
				}
				entries, err := k.ReadDir(cred(), "/d")
				if err != nil {
					errs <- fmt.Errorf("site %d listing %d: %v", s, listing, err)
					return
				}
				listed := make(map[string]bool, len(entries))
				for _, e := range entries {
					listed[e.Name] = true
				}
				for i := range began {
					ended := state[i].Load()
					switch {
					case began[i] >= 1 && ended < 2 && !listed[name(i)]:
						errs <- fmt.Errorf("site %d listing %d lacks %s, created before it began", s, listing, name(i))
						return
					case began[i] == 3 && listed[name(i)]:
						errs <- fmt.Errorf("site %d listing %d has %s, unlinked before it began", s, listing, name(i))
						return
					}
				}
				if first {
					first = false
					ready.Done()
				}
			}
		}(c.K(s))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) > 0 {
		t.Fatalf("fsck: %v", findings)
	}
}
