package fs_test

// A namespace operation changes its directory with one fs.dirop
// exchange: the CSS applies the entry change and makes the one commit
// (§2.3.4, §2.3.6). What an operation sends therefore does not depend on
// the using site's copy of the directory, and a cut of any exchange it
// makes leaves one name or none.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
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
		// As unlink, with a second look at /d: Link searches the new name's
		// parent too.
		"link": {"fs.open": 6, "fs.ssclose": 2, "fs.dirop": 2, "fs.propnotify": 4},
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
// TestRenameCutAtEveryExchange drops every transmission of one exchange
// instead, and cuts the nested exchanges of a CSS that stores no copy.
func TestDirOpCutAtEveryExchange(t *testing.T) {
	const us = 2
	type exchange struct {
		from, to fs.SiteID
		method   string
		nth      int
	}
	for _, op := range nsOps {
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
