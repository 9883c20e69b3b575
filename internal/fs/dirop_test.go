package fs_test

// A namespace operation is one exchange with the CSS, fs.dirop or
// fs.create: the CSS applies the entry change and the named file's
// inode change, one commit each (§2.3.4, §2.3.6). What an operation
// sends therefore depends neither on the using site's copy of the
// directory nor on its copy of the file, and a cut of any exchange it
// makes leaves one name or none, or reclaimable garbage.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"path"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
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
	{"xrename", func(k *fs.Kernel) error { return k.Rename(cred(), "/d/tmp", "/moved") }},
}

// regimes are the two feature configurations the namespace tables run
// under, by the prefix of their subtests' names: the paper's open and
// close, unprefixed, and the default, whose read delegations are the
// lease layer, under "leases/".
var regimes = []struct {
	prefix   string
	features fs.Features
}{{"", fs.Features{NoDelegations: true}}, {"leases/", fs.Features{}}}

// TestNamespaceOpCosts pins what each namespace operation sends in
// renameDir's 1,024-entry /d from the sites of
// TestRenameSameDirectoryIsOneUpdate, under both regimes (each cluster
// booted with its regime's features). A using site that is not the CSS
// holds a pending propagation of /d, and its cache holds the version
// that pull is for (it made the last update), so its search looks at /d
// in the cache with no message, and the operation is one exchange with
// the CSS: fs.dirop, or fs.create for a create, which carries its
// parent and name. The CSS opens, changes and commits every file the operation
// touches itself, its own current copies as a rule, so wherever the
// current copy is, it sends the same, and nothing of the file's own but
// its commit's note.
func TestNamespaceOpCosts(t *testing.T) {
	// From the CSS the operation is a procedure call; only its fan-out to
	// the other two copies goes out: for a create or an unlink one
	// fs.propnotify to each with the notes of every commit it made, a new
	// file's birth note included, for a link or a rename one per commit.
	atCSS := map[string]map[string]int64{
		"create":  {"fs.propnotify": 2},
		"mkdir":   {"fs.propnotify": 2},
		"unlink":  {"fs.propnotify": 2},
		"link":    {"fs.propnotify": 4},
		"rename":  {"fs.propnotify": 2},
		"xrename": {"fs.propnotify": 4},
	}
	elsewhere := map[string]map[string]int64{
		// fs.create to the CSS, which has the using site, the birth site,
		// allocate the inode, and enters the name; the fan-out, in which
		// the birth's note, which came back in the fs.sscreate reply, goes
		// to site 3 with /d's, and /d's alone to the birth site; the
		// close's release.
		"create": {"fs.create": 2, "fs.sscreate": 2, "fs.propnotify": 2, "fs.ssclose": 2},
		"mkdir":  {"fs.create": 2, "fs.sscreate": 2, "fs.propnotify": 2, "fs.ssclose": 2},
		// The fs.dirop, for which the CSS removes the name, then commits
		// f0002's delete on its own current copy; the two commits' one
		// fan-out.
		"unlink": {"fs.dirop": 2, "fs.propnotify": 2},
		// As unlink, the count raised first, and each commit's own
		// fan-out: the new name's parent is spelled as the old one's, so
		// Link does not search it again.
		"link": {"fs.dirop": 2, "fs.propnotify": 4},
		// The one update and its fan-out.
		"rename": {"fs.dirop": 2, "fs.propnotify": 2},
		// One fs.dirop for the two updates (/ is current here), and their
		// fan-outs.
		"xrename": {"fs.dirop": 2, "fs.propnotify": 4},
	}
	for _, rg := range regimes {
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
				t.Run(rg.prefix+row.name+"/"+op.name, func(t *testing.T) {
					c, _ := featureRenameDir(t, rg.features, 1024, row.us, row.stale)
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

	// The rows where the target's state at the CSS is not the common
	// case, unlinked and linked from site 2.
	//   - target-stale: site 3 wrote the file last and nothing has
	//     settled, so the CSS's own copy is stale, and so is site 2's: the
	//     search (its look at /d is the cache's) looks at the file at the
	//     CSS, which polls site 3 for it,
	//     and the CSS's open polls (§2.3.3) site 2, which refuses, and
	//     site 3, which serves the open, the change, its commit (whose
	//     note goes to sites 2 and 1) and the close.
	//   - delegate (the default regime only): site 3 holds a read
	//     delegation of the file, which the CSS's open revokes.
	//   - writer (the default regime only): site 3 opened the file for
	//     modification and closed it unchanged; the close leaves no
	//     writer registration behind, so the CSS recalls nobody.
	//   - handback (the default regime only): site 2 did the same, and
	//     its fs.dirop has nothing to hand back.
	// want is the unlink's. The link's differs only where the CSS commits
	// both files itself, which an unlink's notes reach each site together
	// from, and a link's one commit at a time: linkNotes is the link's
	// fs.propnotify count there.
	for _, rg := range regimes {
		for _, row := range []struct {
			name      string
			delegOnly bool
			prep      func(t *testing.T, c *cluster.Cluster, path string)
			want      map[string]int64
			linkNotes int64
		}{
			{"target-stale", false, func(t *testing.T, c *cluster.Cluster, path string) {
				writeAt(t, c.K(3), path, "w")
			}, map[string]int64{"fs.open": 2, "fs.ssopen": 6, "fs.dirop": 2, "fs.setattr": 1, "fs.commit": 2, "fs.close": 2, "fs.ssclose": 2, "fs.propnotify": 4}, 0},
			{"delegate", true, func(t *testing.T, c *cluster.Cluster, path string) {
				readFile(t, c.K(3), path)
			}, map[string]int64{"fs.dirop": 2, "fs.leaserevoke": 2, "fs.propnotify": 2}, 4},
			{"writer", true, func(t *testing.T, c *cluster.Cluster, path string) {
				writeAt(t, c.K(3), path, "")
			}, map[string]int64{"fs.dirop": 2, "fs.propnotify": 2}, 4},
			{"handback", true, func(t *testing.T, c *cluster.Cluster, path string) {
				writeAt(t, c.K(2), path, "")
			}, map[string]int64{"fs.dirop": 2, "fs.propnotify": 2}, 4},
		} {
			want := row.want
			if row.delegOnly && rg.features.NoDelegations {
				continue
			}
			for _, op := range nsOps {
				path := map[string]string{"unlink": "/d/f0002", "link": "/d/f0003"}[op.name]
				if path == "" {
					continue
				}
				want := want
				if op.name == "link" && row.linkNotes != 0 {
					want = maps.Clone(want)
					want["fs.propnotify"] = row.linkNotes
				}
				t.Run(rg.prefix+row.name+"/"+op.name, func(t *testing.T) {
					c, _ := featureRenameDir(t, rg.features, 1024, 2, false)
					row.prep(t, c, path)
					before := c.Net.Stats()
					if err := op.run(c.K(2)); err != nil {
						t.Fatal(err)
					}
					if d := c.Net.Stats().Sub(before); !reflect.DeepEqual(d.ByMethod, want) {
						t.Errorf("%s sent %d messages %v, want %v", op.name, d.Msgs, d.ByMethod, want)
					}
					settle(t, c)
					if findings := c.Fsck(true); len(findings) != 0 {
						t.Fatalf("fsck: %v", findings)
					}
				})
			}
		}
	}
}

// writeAt opens path for modification at k, writes data over its start
// unless data is empty, and closes it.
func writeAt(t *testing.T, k *fs.Kernel, path, data string) {
	t.Helper()
	f, err := k.Open(cred(), path, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if data != "" {
		if _, err := f.WriteAt([]byte(data), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// cutOps are the operations TestDirOpCutAtEveryExchange cuts: nsOps,
// with the link's new name spelled "/./d/new" so that Link searches its
// parent again (newParent) and that search is cut too (the rename's cuts
// cover the parent newParent takes from the old name's search), and an
// unlink and a link of a file the CSS stores no copy of (offcss), so that
// its open, change and commit at the storage site are exchanges the cut
// reaches. (Moving the file settles the cluster, so their search looks
// at nothing.) The test has the using site write the file of "link"
// first, so that the CSS's own copy awaits its pull and the CSS polls
// and has site 2 serve the count's change and commit, which the cut
// reaches too; "link/atcss" links a file whose current copy the CSS
// stores, as "unlink" unlinks one.
func cutOps() []nsOp {
	ops := slices.Clone(nsOps)
	for i := range ops {
		if ops[i].name == "link" {
			ops[i].run = func(k *fs.Kernel) error { return k.Link(cred(), "/d/f0003", "/./d/new") }
		}
	}
	for _, op := range ops {
		switch op.name {
		case "unlink":
			ops = append(ops, nsOp{op.name + "/offcss", op.run})
		case "link":
			ops = append(ops, nsOp{op.name + "/offcss", op.run}, nsOp{op.name + "/atcss", op.run})
		}
	}
	return ops
}

// TestDirOpCutAtEveryExchange cuts each operation of cutOps, run at site
// 2 with a pending propagation of /d that its cache is one version behind
// (lagCache), so that its search's first look at /d is an exchange with
// the CSS and is cut too, under both regimes, at each
// exchange it makes, nested ones included, one exchange per case: its
// request is dropped once, or its response is, which the retransmission
// must find in the at-most-once table rather than run the handler again
// (an insert run twice fails ErrExists), and either way the operation
// succeeds; or the CSS, site 1, crashes there: after the handler of an
// exchange it is called with ran and before it replies, or as any other
// exchange is sent. At the operation's one exchange with the CSS,
// fs.dirop or fs.create, every transmission is lost, or every reply.
// After the CSS restarts, the network heals and propagation settles,
// fsck must be clean (no leaked page, no dangling entry, no orphan,
// every copy converged) and every site must name the operation's file by
// one name or, for create and unlink, none: the new name where the
// operation reported success, the old where it never reached the CSS. A
// linked file has as many links as names.
//
// The CSS commits each file of an operation in turn, so a crash between
// two of its commits leaves what the first made: never a wrong name,
// only reclaimable garbage, and only at the crashes the table at the end
// pins: a file no name names (fsck's one orphan-inode finding: the new
// inode of a create whose birth is done, the unlinked file whose name is
// removed before its storage site commits the delete, the file a rename
// across directories removed from /d), or a linked file with one link
// more than its names. The CSS sends the notes of a create's or an
// unlink's own commits together after the last, so no exchange falls
// between two of them. Reclaiming either is ROADMAP item 9's.
//
// TestRenameCutAtEveryExchange drops every transmission of one exchange
// instead, and cuts the nested exchanges of a CSS that stores no copy of
// the directory.
func TestDirOpCutAtEveryExchange(t *testing.T) {
	const us = 2
	casts := map[string]bool{"fs.propnotify": true, "fs.write": true, "fs.setattr": true}
	// A case is named by the exchange it cuts: its place among the
	// operation's exchanges, counted from 00, its link and method, and
	// which exchange of that link and method it is. The exchanges below
	// keep the places they had when these cases were first written, when
	// the using site opened, changed, committed and closed the file
	// itself and sent the entry change after, in an fs.dirop of its own,
	// so that their cases keep their names; every other exchange is
	// numbered by its place now. The link's are those of a count that
	// site 2 commits, as it did then.
	createPlaces := map[string]int{
		"1->2/fs.propnotify#1": 6, // /d's commit
		"1->3/fs.propnotify#1": 7, // the birth's and /d's
		"2->1/fs.ssclose#1":    8, // the new file's close
	}
	firstPlaces := map[string]map[string]int{
		"create": createPlaces,
		"mkdir":  createPlaces,
		"unlink": {
			"2->1/fs.dirop#1":      5,
			"1->2/fs.propnotify#1": 6, // /d's commit and the delete
			"1->3/fs.propnotify#1": 7,
		},
		// The CSS's note of /d's commit goes out once the last commit, the
		// file's delete at site 3, is made, which sends its own.
		"unlink/offcss": {
			"1->2/fs.propnotify#1": 2, // /d's commit
			"1->3/fs.propnotify#1": 3,
			"1->3/fs.setattr#1":    4, // the file's delete
			"1->3/fs.commit#1":     5,
			"3->2/fs.propnotify#1": 6,
			"3->1/fs.propnotify#1": 7,
		},
		"link": {
			"2->1/fs.propnotify#1": 3, // the count's commit
			"2->3/fs.propnotify#1": 4,
			"2->1/fs.ssclose#1":    5, // the file's close
			"2->1/fs.dirop#1":      6,
			"1->2/fs.propnotify#1": 7, // /d's commit
			"1->3/fs.propnotify#1": 8,
		},
	}
	// The link's search of its new name's parent looked at /d again, at
	// place 01, when these cases were written; the cache, which the first
	// look brought up to the version of the pending pull, now serves that
	// look, and every exchange after it keeps the place it had then.
	servedLook := map[string]int{"link": 1, "link/atcss": 1}
	garbage := map[string]map[int]string{}
	for _, rg := range regimes {
		for _, op := range cutOps() {
			setup := func(t *testing.T) (*cluster.Cluster, storage.InodeNum) {
				c, tmp := featureRenameDir(t, rg.features, 8, us, true)
				if strings.HasSuffix(op.name, "/offcss") {
					if err := c.K(1).SetReplication(cred(), nsPath(op.name), []fs.SiteID{3, 2}); err != nil {
						t.Fatal(err)
					}
					settle(t, c)
				} else {
					if op.name == "link" {
						writeAt(t, c.K(us), nsPath(op.name), "w")
					}
					lagCache(t, c)
				}
				return c, fileAt(t, c, op.name, tmp)
			}
			c, _ := setup(t)
			script := fs.Record(c.Net, func() {
				if err := op.run(c.K(us)); err != nil {
					t.Fatal(err)
				}
			})

			for i, ex := range script.Exchanges() {
				cuts := []string{"drop", "dropreply", "crash"}
				if ex.From == us && ex.To == 1 && (ex.Method == "fs.dirop" || ex.Method == "fs.create") {
					cuts = append(cuts, "dropall", "dropallreplies")
				}
				place, ok := firstPlaces[op.name][ex.String()]
				if !ok {
					place = i
					if at, served := servedLook[op.name]; served && i >= at {
						place++
					}
				}
				for _, how := range cuts {
					t.Run(fmt.Sprintf("%s%s/%02d:%v/%s", rg.prefix, op.name, place, ex, how), func(t *testing.T) {
						c, target := setup(t)
						// A cast has no reply: its one message is what a
						// dropped reply drops. A crash of the CSS as it
						// replies comes after its handler ran.
						cut := map[string]fs.Cut{
							"drop":           {At: ex, Drop: 1},
							"dropreply":      {At: ex, Drop: 1, Reply: !casts[ex.Method]},
							"dropall":        {At: ex, Drop: 8}, // the retry budget of one exchange
							"dropallreplies": {At: ex, Drop: 8, Reply: true},
							"crash":          {At: ex, Crash: 1, Reply: ex.To == 1 && !casts[ex.Method]},
						}[how]
						before := c.Net.Stats()
						var err error
						cut.Run(c.Net, func() { err = op.run(c.K(us)) })
						d := c.Net.Stats().Sub(before)
						switch {
						case how == "crash" && c.Net.Up(1):
							t.Fatal("the CSS is up after the cut: the cut missed the exchange")
						case how != "crash" && d.MsgsDropped != int64(cut.Drop):
							t.Fatalf("%d messages dropped, want %d: the fault missed the exchange", d.MsgsDropped, cut.Drop)
						case how != "crash" && cut.Drop == 1 && err != nil:
							t.Fatalf("%s failed after one lost message: %v", op.name, err)
						case cut.Drop > 1 && err == nil:
							t.Fatalf("%s succeeded with every %s lost", op.name, ex.Method)
						}
						t.Logf("%s: %v", op.name, err)
						if how == "crash" {
							c.Crash(1) // the survivors learn of it
							c.Net.Restart(1)
						}
						left := healLeavingGarbage(t, c, op.name, target)
						if left != "" && how != "crash" {
							t.Fatalf("%s left %s garbage at a cut that is no crash", op.name, left)
						}
						if left != "" {
							key := rg.prefix + op.name
							if garbage[key] == nil {
								garbage[key] = map[int]string{}
							}
							garbage[key][place] = left
						}
						checkNames(t, c, op.name, target, err, how == "dropall", left)
					})
				}
			}
		}
	}
	// The crashes that leave garbage, by the place of the exchange they
	// cut, in both regimes: a create's at the birth site's allocation, a
	// rename's at the fan-out of the old directory's commit, a link's at
	// the fan-out of the count's commit; and, with a file whose commit
	// the CSS sends to another storage site, an unlink's at the change it
	// sends, a link's at the commit it sends and at that commit's
	// fan-out. A create's and an unlink's own commits at the CSS send
	// their notes together once the last is made, so no exchange
	// separates two of them: a crash between them, which would leave
	// garbage too, is one no exchange can cut (ROADMAP item 9).
	orphans := func(i ...int) map[int]string { return pinned("orphan", i) }
	want := map[string]map[int]string{
		"create":        orphans(2),
		"mkdir":         orphans(2),
		"link":          pinned("count", []int{3, 4, 5}),
		"xrename":       orphans(2, 3),
		"unlink/offcss": orphans(4),
		"link/offcss":   pinned("count", []int{3, 4, 5}),
		"link/atcss":    pinned("count", []int{3, 4}),
	}
	for _, rg := range regimes {
		for _, op := range cutOps() {
			if got := garbage[rg.prefix+op.name]; len(got)+len(want[op.name]) > 0 && !reflect.DeepEqual(got, want[op.name]) {
				t.Errorf("%s%s: the crashes that leave garbage are %v, want %v", rg.prefix, op.name, got, want[op.name])
			}
		}
	}
}

// pinned maps each exchange index of at to garbage.
func pinned(garbage string, at []int) map[int]string {
	m := map[int]string{}
	for _, i := range at {
		m[i] = garbage
	}
	return m
}

// nsPath is the path of the file op is about in renameDir's /d, "" for
// a file yet to be made.
func nsPath(op string) string {
	op, _, _ = strings.Cut(op, "/")
	switch op {
	case "rename", "xrename":
		return "/d/tmp"
	case "unlink":
		return "/d/f0002"
	case "link":
		return "/d/f0003"
	}
	return ""
}

// fileAt returns the inode op is about in renameDir's /d: the renamed
// tmp, the unlinked f0002 or the linked f0003; 0 for a file yet to be
// made.
func fileAt(t *testing.T, c *cluster.Cluster, op string, tmp storage.InodeNum) storage.InodeNum {
	t.Helper()
	switch path := nsPath(op); path {
	case "":
		return 0
	case "/d/tmp":
		return tmp
	default:
		ino, err := c.K(1).Stat(cred(), path)
		if err != nil {
			t.Fatal(err)
		}
		return ino.Num
	}
}

// healLeavingGarbage heals and settles the cluster after a cut of op, as
// healAfterCut does, and returns the garbage the cut left: "orphan" when
// fsck's one finding is an orphan inode, op's file or, for a create, a
// new one; "count" when op's linked file has one link more than names;
// "" when there is none. Any other finding fails the test.
func healLeavingGarbage(t *testing.T, c *cluster.Cluster, op string, ino storage.InodeNum) string {
	t.Helper()
	if _, err := c.Merge(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	findings := c.Fsck(true)
	switch {
	case len(findings) == 0:
	case len(findings) == 1 && findings[0].Kind == "orphan-inode" && (ino == 0 || findings[0].ID.Inode == ino):
		return "orphan"
	default:
		t.Fatalf("fsck after the cut: %v", findings)
	}
	if names := namesOf(t, c.K(1), "/d", ino); strings.HasPrefix(op, "link") && len(names) > 0 {
		if st, err := c.K(1).Stat(cred(), "/d/"+names[0]); err == nil && st.Nlink == len(names)+1 {
			return "count"
		}
	}
	return ""
}

// checkNames checks what a cut op left at every site (see
// TestDirOpCutAtEveryExchange); err is what the op returned, lost that
// its one exchange with the CSS never reached it, and garbage what
// healLeavingGarbage found.
func checkNames(t *testing.T, c *cluster.Cluster, op string, ino storage.InodeNum, err error, lost bool, garbage string) {
	t.Helper()
	op, _, _ = strings.Cut(op, "/")
	want := map[string]string{"create": "/d/new", "mkdir": "/d/new", "rename": "/d/f0001", "xrename": "/moved"}[op]
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
					names = append(names, "/d/"+e.Name)
				}
			}
		} else {
			for _, dir := range []string{"/d", "/"} {
				for _, name := range namesOf(t, k, dir, ino) {
					names = append(names, path.Join(dir, name))
				}
			}
		}
		named := len(names) == 1 && names[0] == want
		switch op {
		case "unlink":
			named = len(names) == 0
		case "link":
			named = len(names) == 2
		}
		switch {
		case garbage == "orphan" && len(names) != 0:
			t.Fatalf("site %d: %s left an orphan, named %v", s, op, names)
		case err == nil && !named, lost && named:
			t.Fatalf("site %d: %s returned %v and the file is named %v", s, op, err, names)
		case op == "link" && len(names) < 1, len(names) > 2:
			t.Fatalf("site %d: %s returned %v and the file is named %v", s, op, err, names)
		case len(names) > 1 && op != "link",
			len(names) == 0 && garbage == "" && (op == "rename" || op == "xrename"):
			t.Fatalf("site %d: %s returned %v and the file is named %v", s, op, err, names)
		}
		for _, name := range names {
			st, serr := k.Stat(cred(), name)
			if serr != nil {
				t.Fatalf("site %d: %s: %v", s, name, serr)
			}
			if n := len(names); ino != 0 && st.Nlink != n && (garbage != "count" || st.Nlink != n+1) {
				t.Fatalf("site %d: %s has %d links and %d names", s, name, st.Nlink, n)
			}
		}
	}
}

// TestUsingSiteReappliesItsUpdate: a using site re-applies its own entry
// change to the snapshot it caches, so its next search of the directory
// sends nothing — its copy awaits the pull, and the cache holds the
// version the pull is for (lookCached) — and lists what the CSS committed
// (TestDirOpReappliesAtItsVersionOnly has a site whose snapshot is
// behind).
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
	readDir("after its create", map[string]int64{}, "tmp", "a")
	if err := k.Rename(cred(), "/d/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	readDir("after its rename", map[string]int64{}, "tmp", "b")
}

// TestNamespaceOpDiskCosts pins what each namespace operation writes to
// the disk in renameDir's 1,024-entry /d, three pages long, settled
// first, from the CSS (site 1) and from site 2: the CSS, which stores
// /d, writes the pages holding the entries the operation changes —
// shadow pages, so those and only those get new physical pages — and
// commits /d once, and the next Settle pulls those pages to the other
// two copies and no other page of /d. The new name sorts after f1023, on
// the last page, as do tmp and f0003's link; f0001 and f0002 are on the
// first, so the rename writes two pages. The CSS commits every delete,
// the set-up's of f0001 included, so f0002's tombstone no longer fits on
// the first page, and the unlink lays /d out again from there: three
// pages. disk counts every
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
		{"unlink", 2, []int{0, 1, 2}, 7, 6},
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
// a create's, run at site 2, at each exchange its update makes, nested
// ones included, one exchange per case, the two ways
// TestRenameCutAtEveryExchange cuts: all
// 8 transmissions of its request are dropped, or the using site crashes
// as it is sent. After the network heals (or the site restarts) and
// propagation settles, fsck must be clean (no leaked page, no orphan,
// every copy converged), both copies of /d must be byte for byte the
// same, and /d must name the new file once, or not at all if the create
// failed — once if it succeeded.
func TestDirRelayoutCutAtEveryExchange(t *testing.T) {
	const us = 2
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
		script := fs.Record(c.Net, func() {
			if err := create(c.K(us), path); err != nil {
				t.Fatal(err)
			}
		})
		settle(t, c)
		if got := dirPages(t, c); got != int64(pagesAfter) {
			t.Fatalf("%s: /d is %d pages after the update, want %d", kind, got, pagesAfter)
		}
		exchanges := script.Exchanges()
		sent := 0
		for _, ex := range exchanges {
			if ex.From == 1 && ex.To == 3 && ex.Method == "fs.write" {
				sent++
			}
		}
		if sent != writes {
			t.Fatalf("%s: the CSS sent %d fs.write, want %d", kind, sent, writes)
		}

		// The update's exchanges: the fs.create, which makes the file and
		// the update, and what follows it, but for the new file's birth at
		// the using site, the allocation and its notes. (A cut of those is
		// TestDirOpCutAtEveryExchange's.) A case is named as there
		// (firstPlaces): the exchanges the update made when it was an
		// fs.dirop of its own, sent after the birth, keep their places.
		firstPlaces := map[string]int{
			"1->3/fs.ssopen#1":     5,
			"1->3/fs.write#1":      6,
			"1->3/fs.write#2":      7,
			"1->3/fs.write#3":      8,
			"1->3/fs.commit#1":     9,
			"3->2/fs.propnotify#1": 10,
			"3->1/fs.propnotify#1": 11,
			"1->3/fs.close#1":      12,
			"3->1/fs.ssclose#1":    13,
			"2->1/fs.ssclose#1":    14, // the new file's close
		}
		first := slices.IndexFunc(exchanges, func(ex fs.Exchange) bool { return ex.Method == "fs.create" })
		for i, ex := range exchanges {
			if i < first || ex.Method == "fs.sscreate" || ex.From == us && ex.Method == "fs.propnotify" {
				continue
			}
			place, ok := firstPlaces[ex.String()]
			if !ok {
				place = i
			}
			for _, crash := range []bool{false, true} {
				how, cut := "drop", fs.Cut{At: ex, Drop: 8}
				if crash {
					how, cut = "crash", fs.Cut{At: ex, Crash: us}
				}
				t.Run(fmt.Sprintf("%s/%02d:%v/%s", kind, place, ex, how), func(t *testing.T) {
					c, path, _, _ := pagedDirOp(t, kind)
					settle(t, c)
					before := c.Net.Stats()
					var err error
					cut.Run(c.Net, func() { err = create(c.K(us), path) })
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
