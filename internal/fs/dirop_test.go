package fs_test

// A namespace operation changes its directory with one fs.dirop
// exchange: the CSS applies the entry change and makes the one commit
// (§2.3.4, §2.3.6). What an operation sends therefore does not depend on
// the using site's copy of the directory, and a cut of any exchange it
// makes leaves one name or none.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// nsOp is one namespace operation on renameDir's /d, run at k.
type nsOp struct {
	name string
	run  func(k *fs.Kernel) error
}

var nsOps = []nsOp{
	{"create", func(k *fs.Kernel) error {
		f, err := k.Create(cred(), "/d/new", storage.TypeRegular, 0644)
		if err != nil {
			return err
		}
		return f.Close()
	}},
	{"mkdir", func(k *fs.Kernel) error { return k.Mkdir(cred(), "/d/new", 0755) }},
	{"unlink", func(k *fs.Kernel) error { return k.Unlink(cred(), "/d/f0002") }},
	{"link", func(k *fs.Kernel) error { return k.Link(cred(), "/d/f0003", "/d/new") }},
	{"rename", func(k *fs.Kernel) error { return k.Rename(cred(), "/d/tmp", "/d/f0001") }},
}

// TestNamespaceOpCosts pins what each namespace operation sends in
// renameDir's 1,024-entry /d from the sites of
// TestRenameSameDirectoryIsOneUpdate. A using site that is not the CSS
// holds a pending propagation of /d, so its search looks at /d at the
// CSS, and its entry change is one fs.dirop; whether its cache is
// current (it made the last update) or not, and wherever the current
// copy is, it sends the same. Each operation's other traffic is the
// file's own.
func TestNamespaceOpCosts(t *testing.T) {
	// From the CSS the update is a procedure call; only its fan-out to the
	// other two copies goes out, and a new file's birth note.
	atCSS := map[string]map[string]int64{
		"create": {"fs.propnotify": 4},
		"mkdir":  {"fs.propnotify": 4},
		"unlink": {"fs.propnotify": 4},
		"link":   {"fs.propnotify": 4},
		"rename": {"fs.propnotify": 2},
	}
	elsewhere := map[string]map[string]int64{
		// The look at /d; fs.create to the CSS, which has the using site,
		// the birth site, allocate the inode, whose birth note goes to the
		// other two copies; the entry; /d's fan-out; the close's release.
		"create": {"fs.open": 2, "fs.create": 2, "fs.sscreate": 2, "fs.dirop": 2, "fs.propnotify": 4, "fs.ssclose": 2},
		"mkdir":  {"fs.open": 2, "fs.create": 2, "fs.sscreate": 2, "fs.dirop": 2, "fs.propnotify": 4, "fs.ssclose": 2},
		// The look at /d; f0002's modify open at the CSS, served by the
		// using site's current copy, its commit's note to the other two and
		// the close's release; the tombstone; /d's fan-out.
		"unlink": {"fs.open": 4, "fs.ssclose": 2, "fs.dirop": 2, "fs.propnotify": 4},
		// As unlink: the new name's parent is spelled as the old one's, so
		// Link does not search it again.
		"link": {"fs.open": 4, "fs.ssclose": 2, "fs.dirop": 2, "fs.propnotify": 4},
		// The look at /d, the one update and its fan-out.
		"rename": {"fs.open": 2, "fs.dirop": 2, "fs.propnotify": 2},
	}
	for _, row := range []struct {
		name  string
		us    fs.SiteID
		stale bool
		want  map[string]map[string]int64
	}{
		{"current/css", 1, false, atCSS},
		{"current", 2, false, elsewhere},
		{"stale", 2, true, elsewhere},
		{"stale/ss-is-css", 3, true, elsewhere},
	} {
		for _, op := range nsOps {
			t.Run(row.name+"/"+op.name, func(t *testing.T) {
				c, _ := renameDir(t, 1024, row.us, row.stale)
				before := c.Net.Stats()
				if err := op.run(c.K(row.us)); err != nil {
					t.Fatal(err)
				}
				if d := c.Net.Stats().Sub(before); !reflect.DeepEqual(d.ByMethod, row.want[op.name]) {
					t.Errorf("%s sent %d messages %v, want %v", op.name, d.Msgs, d.ByMethod, row.want[op.name])
				}
			})
		}
	}
}

// TestDirOpCutAtEveryExchange cuts each namespace operation, run at site
// 2 with a pending propagation of /d, at each exchange it makes, nested
// ones included, one exchange per case: its request is dropped once, or
// its response is, which the retransmission must find in the
// at-most-once table rather than run the handler again (an insert run
// twice fails ErrExists); and at its fs.dirop the CSS, site 1, crashes
// after the update and before it replies. After the CSS restarts, the
// network heals and propagation settles, fsck must be clean (no leaked
// page, no dangling entry, no orphan, every copy converged) and every
// site must name the operation's file by one name or, for create and
// unlink, none: the new name where the operation reported success. A
// linked file has as many links as names.
//
// A crash of the CSS at its other exchanges is not in the table: inside
// fs.create it leaves the new inode an orphan, and at the fs.ssclose of
// an unlink's (a link's) inode it leaves the committed delete (link
// count) with the entry unchanged (ROADMAP item 9).
//
// The link's new name is spelled "/./d/new", so that Link searches its
// parent again (newParent) and that search is cut too; the rename's
// cuts cover the parent newParent takes from the old name's search.
//
// TestRenameCutAtEveryExchange drops every transmission of one exchange
// instead, and cuts the nested exchanges of a CSS that stores no copy.
func TestDirOpCutAtEveryExchange(t *testing.T) {
	const us = 2
	type exchange struct {
		from, to fs.SiteID
		method   string
		nth      int
	}
	ops := slices.Clone(nsOps)
	for i := range ops {
		if ops[i].name == "link" {
			ops[i].run = func(k *fs.Kernel) error { return k.Link(cred(), "/d/f0003", "/./d/new") }
		}
	}
	for _, op := range ops {
		c, _ := renameDir(t, 8, us, true)
		var exchanges []exchange
		seen := map[exchange]int{}
		c.Net.SetTrace(func(from, to fs.SiteID, method string) {
			key := exchange{from: from, to: to, method: method}
			seen[key]++
			key.nth = seen[key]
			exchanges = append(exchanges, key)
		})
		if err := op.run(c.K(us)); err != nil {
			t.Fatal(err)
		}
		c.Net.SetTrace(nil)

		for i, ex := range exchanges {
			for _, cut := range []string{"drop", "dropreply", "crash"} {
				if cut == "crash" && ex.method != "fs.dirop" {
					continue
				}
				t.Run(fmt.Sprintf("%s/%02d:%d->%d/%s#%d/%s", op.name, i, ex.from, ex.to, ex.method, ex.nth, cut), func(t *testing.T) {
					c, tmp := renameDir(t, 8, us, true)
					target := fileAt(t, c, op.name, tmp)
					var pts []netsim.FaultPoint
					switch cut {
					case "drop":
						pts = []netsim.FaultPoint{{From: ex.from, To: ex.to, Method: ex.method, Nth: ex.nth, Action: netsim.FaultDropRequest}}
					case "dropreply":
						pts = []netsim.FaultPoint{{From: ex.from, To: ex.to, Method: ex.method, Nth: ex.nth, Action: netsim.FaultDropResponse}}
					case "crash":
						pts = []netsim.FaultPoint{{From: ex.from, To: ex.to, Method: ex.method, Nth: ex.nth, Action: netsim.FaultCrashBeforeReply}}
					}
					c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
					before := c.Net.Stats()
					err := op.run(c.K(us))
					d := c.Net.Stats().Sub(before)
					c.Net.DisableFaults()
					switch {
					case cut == "crash" && c.Net.Up(1):
						t.Fatal("the CSS is up after the cut: the cut missed the exchange")
					case cut != "crash" && d.MsgsDropped != 1:
						t.Fatalf("%d messages dropped, want 1: the fault missed the exchange", d.MsgsDropped)
					case cut != "crash" && err != nil:
						t.Fatalf("%s failed after one lost message: %v", op.name, err)
					}
					t.Logf("%s: %v", op.name, err)
					if cut == "crash" {
						c.Crash(1) // the survivors learn of it
						c.Net.Restart(1)
					}
					healAfterCut(t, c)
					checkNames(t, c, op.name, target, err)
				})
			}
		}
	}
}

// fileAt returns the inode op is about in renameDir's /d: the renamed
// tmp, the unlinked f0002 or the linked f0003; 0 for a file yet to be
// made.
func fileAt(t *testing.T, c *cluster.Cluster, op string, tmp storage.InodeNum) storage.InodeNum {
	t.Helper()
	var path string
	switch op {
	case "rename":
		return tmp
	case "unlink":
		path = "/d/f0002"
	case "link":
		path = "/d/f0003"
	default:
		return 0
	}
	ino, err := c.K(1).Stat(cred(), path)
	if err != nil {
		t.Fatal(err)
	}
	return ino.Num
}

// checkNames checks what a cut op left in /d at every site (see
// TestDirOpCutAtEveryExchange); err is what the op returned.
func checkNames(t *testing.T, c *cluster.Cluster, op string, ino storage.InodeNum, err error) {
	t.Helper()
	for _, s := range c.Sites() {
		k := c.K(s)
		var names []string
		if ino == 0 { // a made file: the names that start "new"
			ents, lerr := k.ReadDir(cred(), "/d")
			if lerr != nil {
				t.Fatal(lerr)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name, "new") {
					names = append(names, e.Name)
				}
			}
		} else {
			names = namesOf(t, k, "/d", ino)
		}
		switch op {
		case "create", "mkdir":
			if len(names) > 1 || err == nil && len(names) != 1 {
				t.Fatalf("site %d: %s returned %v and /d names %v", s, op, err, names)
			}
		case "unlink":
			if len(names) > 1 || err == nil && len(names) != 0 {
				t.Fatalf("site %d: unlink returned %v and f0002 is named %v", s, err, names)
			}
		case "link":
			if len(names) < 1 || len(names) > 2 || err == nil && len(names) != 2 {
				t.Fatalf("site %d: link returned %v and f0003 is named %v", s, err, names)
			}
		case "rename":
			if len(names) != 1 || err == nil && names[0] != "f0001" {
				t.Fatalf("site %d: rename returned %v and the file is named %v", s, err, names)
			}
		}
		for _, name := range names {
			st, serr := k.Stat(cred(), "/d/"+name)
			if serr != nil {
				t.Fatalf("site %d: /d/%s: %v", s, name, serr)
			}
			if ino != 0 && st.Nlink != len(names) {
				t.Fatalf("site %d: /d/%s has %d links and %d names", s, name, st.Nlink, len(names))
			}
		}
	}
}

// TestUsingSiteReappliesItsUpdate: a using site re-applies its own entry
// change to the snapshot it caches, so its next search of the directory
// reads nothing — it looks at /d at the CSS, its copy awaiting the pull —
// and lists what the CSS committed (TestDirOpReappliesAtItsVersionOnly
// has a site whose snapshot is behind).
func TestUsingSiteReappliesItsUpdate(t *testing.T) {
	c, _ := renameDir(t, 1024, 2, false)
	k := c.K(2)
	readDir := func(what string, want map[string]int64, names ...string) {
		t.Helper()
		before := c.Net.Stats()
		ents, err := k.ReadDir(cred(), "/d")
		if err != nil {
			t.Fatal(err)
		}
		if d := c.Net.Stats().Sub(before); !reflect.DeepEqual(d.ByMethod, want) {
			t.Errorf("%s: the listing sent %v, want %v", what, d.ByMethod, want)
		}
		listed := map[string]bool{}
		for _, e := range ents {
			listed[e.Name] = true
		}
		for _, name := range names {
			if !listed[name] {
				t.Errorf("%s: /d does not list %s", what, name)
			}
		}
		if len(ents) != 1023+len(names) { // f0001 was unlinked
			t.Errorf("%s: /d lists %d names, want %d", what, len(ents), 1023+len(names))
		}
	}
	writeFile(t, k, "/d/a", nil)
	readDir("after its create", map[string]int64{"fs.open": 2}, "tmp", "a")
	if err := k.Rename(cred(), "/d/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	readDir("after its rename", map[string]int64{"fs.open": 2}, "tmp", "b")
}

// TestNamespaceOpDiskCosts pins what each namespace operation writes to
// the disk in renameDir's 1,024-entry /d, three pages long, settled
// first, from the CSS (site 1) and from site 2: the CSS, which stores
// /d, writes the pages holding the entries the operation changes —
// shadow pages, so those and only those get new physical pages — and
// commits /d once, and the next Settle pulls those pages to the other
// two copies and no other page of /d. The new name sorts after f1023, on
// the last page, as do tmp and f0003's link; f0001 and f0002 are on the
// first, so the rename writes two pages. Where site 1 made the setup's
// updates, f0002's tombstone no longer fits on the first page, and the
// unlink lays /d out again from there: three pages. disk counts every
// page transfer and inode commit the operation makes, the file's own
// included (an unlink's tombstone is committed at all three copies, a
// create's inode at its birth site); pulls counts /d's pages and the
// link's one page of f0003, whose link count changed.
func TestNamespaceOpDiskCosts(t *testing.T) {
	for _, row := range []struct {
		op          string
		us          fs.SiteID
		pages       []int
		disk, pulls int64
	}{
		{"create", 1, []int{2}, 3, 2},
		{"create", 2, []int{2}, 3, 2},
		{"mkdir", 1, []int{2}, 3, 2},
		{"mkdir", 2, []int{2}, 3, 2},
		{"unlink", 1, []int{0, 1, 2}, 7, 6},
		{"unlink", 2, []int{0}, 5, 2},
		{"link", 1, []int{2}, 3, 4},
		{"link", 2, []int{2}, 3, 4},
		{"rename", 1, []int{0, 2}, 3, 4},
		{"rename", 2, []int{0, 2}, 3, 4},
	} {
		t.Run(fmt.Sprintf("%s/site%d", row.op, row.us), func(t *testing.T) {
			c, _ := renameDir(t, 1024, row.us, false)
			settle(t, c)
			r, err := c.K(1).Resolve(cred(), "/d")
			if err != nil {
				t.Fatal(err)
			}
			pack := c.K(1).Store().Container(r.ID.FG)
			before, err := pack.GetInode(r.ID.Inode)
			if err != nil {
				t.Fatal(err)
			}
			if n := before.NPages(); n != 3 {
				t.Fatalf("/d is %d pages, want 3", n)
			}
			var op nsOp
			for _, o := range nsOps {
				if o.name == row.op {
					op = o
				}
			}
			s0 := c.Net.Stats()
			if err := op.run(c.K(row.us)); err != nil {
				t.Fatal(err)
			}
			s1 := c.Net.Stats()
			after, err := pack.GetInode(r.ID.Inode)
			if err != nil {
				t.Fatal(err)
			}
			var written []int
			for pn := range after.Pages {
				if pn >= len(before.Pages) || after.Pages[pn] != before.Pages[pn] {
					written = append(written, pn)
				}
			}
			if !slices.Equal(written, row.pages) || after.VV.Compare(before.VV.Bump(1)) != vclock.Equal {
				t.Errorf("the CSS wrote pages %v of /d and went %v -> %v; want pages %v and one commit", written, before.VV, after.VV, row.pages)
			}
			if got := s1.Sub(s0).DiskUs / c.Net.Cost().DiskUs; got != row.disk {
				t.Errorf("%s made %d disk transfers, want %d", row.op, got, row.disk)
			}
			settle(t, c)
			if got := c.Net.Stats().Sub(s1).PullPagesSent; got != row.pulls {
				t.Errorf("the settle after %s pulled %d pages, want %d", row.op, got, row.pulls)
			}
			if findings := c.Fsck(true); len(findings) != 0 {
				t.Fatalf("fsck: %v", findings)
			}
		})
	}
}

// pagedDirOp readies one of the two directory updates that lay /d out
// again, in a /d stored at sites 3 and 2 and not at the CSS, site 1, as
// TestRenameCutAtEveryExchange's is, so that the CSS's update writes,
// truncates and commits at site 3 across the network. "relayout"
// creates a name on /d's full first page (1,024 names, three pages):
// the page overflows and /d is laid out again from there, so the update
// writes all three pages. "droppage" re-creates a name whose entry fills
// a page by itself as a live entry and does not as a tombstone: the
// entry shrinks back to one page, the page after it moves up, /d loses a
// page and the update truncates it first. It returns the cluster, the
// path the op creates, and the page counts of /d before and after it.
func pagedDirOp(t *testing.T, kind string) (c *cluster.Cluster, path string, pagesBefore, pagesAfter int) {
	t.Helper()
	const us = 2
	switch kind {
	case "relayout":
		c, _ = renameDir(t, 1024, us, true, 3, 2)
		return c, "/d/f0000x", 3, 3
	case "droppage":
		c, _ = renameDir(t, 8, us, true, 3, 2)
		writeFile(t, c.K(us), "/d/h", nil)
		st, err := c.K(us).Stat(cred(), "/d/h")
		if err != nil {
			t.Fatal(err)
		}
		// On a page of its own, after a page header of 1 byte, the entry
		// is the name's length (2 bytes), the name, the inode number (as
		// wide as h's) and the flag byte: it fills the page exactly.
		ino := binary.AppendUvarint(nil, uint64(st.Num))
		path = "/d/g" + strings.Repeat("x", storage.PageSize-1-2-len(ino)-1-1)
		writeFile(t, c.K(us), path, nil)
		if err := c.K(us).Unlink(cred(), path); err != nil {
			t.Fatal(err)
		}
		return c, path, 4, 3
	}
	t.Fatalf("no op %q", kind)
	return
}

// dirPages returns /d's committed size at site 3, checking that site 2's
// copy is byte for byte the same.
func dirPages(t *testing.T, c *cluster.Cluster) int64 {
	t.Helper()
	r, err := c.K(3).Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.K(3).Store().Container(r.ID.FG).PeekFile(nil, r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := c.K(2).Store().Container(r.ID.FG).PeekFile(nil, r.ID.Inode); err != nil || !bytes.Equal(other, raw) {
		t.Fatalf("site 2's copy of /d is not site 3's (%v)", err)
	}
	return (int64(len(raw)) + storage.PageSize - 1) / storage.PageSize
}

// TestDirRelayoutCutAtEveryExchange cuts each update pagedDirOp readies,
// run at site 2, at each exchange it makes, nested ones included, one
// exchange per case, the two ways TestRenameCutAtEveryExchange cuts: all
// 8 transmissions of its request are dropped, or the using site crashes
// as it is sent. After the network heals (or the site restarts) and
// propagation settles, fsck must be clean (no leaked page, no orphan,
// every copy converged), both copies of /d must be byte for byte the
// same, and /d must name the new file once, or not at all if the create
// failed — once if it succeeded.
func TestDirRelayoutCutAtEveryExchange(t *testing.T) {
	const us = 2
	type exchange struct {
		from, to fs.SiteID
		method   string
		nth      int
	}
	create := func(k *fs.Kernel, path string) error {
		f, err := k.Create(cred(), path, storage.TypeRegular, 0644)
		if err != nil {
			return err
		}
		return f.Close()
	}
	// The CSS's fs.write messages: the three pages /d is laid out on
	// again; the truncation and the two pages after the first.
	for _, kind := range []string{"relayout", "droppage"} {
		writes := 3
		c, path, pagesBefore, pagesAfter := pagedDirOp(t, kind)
		settle(t, c)
		if got := dirPages(t, c); got != int64(pagesBefore) {
			t.Fatalf("%s: /d is %d pages before the update, want %d", kind, got, pagesBefore)
		}
		var exchanges []exchange
		seen := map[exchange]int{}
		c.Net.SetTrace(func(from, to fs.SiteID, method string) {
			key := exchange{from: from, to: to, method: method}
			seen[key]++
			key.nth = seen[key]
			exchanges = append(exchanges, key)
		})
		if err := create(c.K(us), path); err != nil {
			t.Fatal(err)
		}
		c.Net.SetTrace(nil)
		settle(t, c)
		if got := dirPages(t, c); got != int64(pagesAfter) {
			t.Fatalf("%s: /d is %d pages after the update, want %d", kind, got, pagesAfter)
		}
		if got := seen[exchange{from: 1, to: 3, method: "fs.write"}]; got != writes {
			t.Fatalf("%s: the CSS sent %d fs.write, want %d", kind, got, writes)
		}

		// The update's exchanges: the fs.dirop and what follows it. (A cut
		// of the new file's own creation is TestDirOpCutAtEveryExchange's.)
		first := slices.IndexFunc(exchanges, func(ex exchange) bool { return ex.method == "fs.dirop" })
		for i, ex := range exchanges {
			if i < first {
				continue
			}
			for _, crash := range []bool{false, true} {
				how := "drop"
				if crash {
					how = "crash"
				}
				t.Run(fmt.Sprintf("%s/%02d:%d->%d/%s#%d/%s", kind, i, ex.from, ex.to, ex.method, ex.nth, how), func(t *testing.T) {
					c, path, _, _ := pagedDirOp(t, kind)
					settle(t, c)
					before := c.Net.Stats()
					if crash {
						sent := 0
						c.Net.SetTrace(func(fs.SiteID, fs.SiteID, string) {
							if sent++; sent == i+1 {
								c.Net.Crash(us)
							}
						})
					} else {
						var pts []netsim.FaultPoint
						for j := 0; j < 8; j++ {
							pts = append(pts, netsim.FaultPoint{From: ex.from, To: ex.to, Method: ex.method, Nth: ex.nth, Action: netsim.FaultDropRequest})
						}
						c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
					}
					err := create(c.K(us), path)
					c.Net.SetTrace(nil)
					c.Net.DisableFaults()
					if crash == c.Net.Up(us) {
						t.Fatalf("using site up = %v after the cut, want %v: the cut missed the exchange", c.Net.Up(us), !crash)
					}
					if d := c.Net.Stats().Sub(before); !crash && d.MsgsDropped != 8 {
						t.Fatalf("%d requests dropped, want 8: the fault missed the exchange", d.MsgsDropped)
					}
					t.Logf("create: %v", err)
					if crash {
						c.Crash(us) // the survivors learn of it
						c.Net.Restart(us)
					}
					healAfterCut(t, c)
					dirPages(t, c)
					name := path[len("/d/"):]
					for _, s := range c.Sites() {
						ents, lerr := c.K(s).ReadDir(cred(), "/d")
						if lerr != nil {
							t.Fatal(lerr)
						}
						n := 0
						for _, e := range ents {
							if e.Name == name {
								n++
							}
						}
						if n > 1 || err == nil && n != 1 {
							t.Fatalf("site %d: the create returned %v and /d names the file %d times", s, err, n)
						}
					}
				})
			}
		}
	}
}
