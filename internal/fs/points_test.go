package fs_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
)

// TestCreatePointStream pins the points of a create from site 2, which
// is not the CSS, in TestDirOpCutAtEveryExchange's set-up, under both
// regimes: every request and reply, in order, and the same Seq on every
// run. The search's look at /d, whose cache is a version behind, is the
// fs.open exchange; the CSS's fs.create has the birth site allocate the
// inode, sends the notes of its commits, and answers; the close releases
// the new file. Each nested exchange's reply comes before its caller's.
func TestCreatePointStream(t *testing.T) {
	want := []string{
		"request 2->1 fs.open",
		"reply 1->2 fs.open",
		"request 2->1 fs.create",
		"request 1->2 fs.sscreate",
		"reply 2->1 fs.sscreate",
		"request 1->3 fs.propnotify",
		"request 1->2 fs.propnotify",
		"reply 1->2 fs.create",
		"request 2->1 fs.ssclose",
		"reply 1->2 fs.ssclose",
	}
	kinds := map[netsim.PointKind]string{netsim.PointRequest: "request", netsim.PointReply: "reply"}
	for _, rg := range regimes {
		var runs [2]fs.Script
		for i := range runs {
			c, _ := featureRenameDir(t, rg.features, 8, 2, true)
			lagCache(t, c)
			runs[i] = fs.Record(c.Net, func() {
				if err := nsOps[0].run(c.K(2)); err != nil { // the create
					t.Fatal(err)
				}
			})
		}
		var got []string
		for i, p := range runs[0] {
			if p.Seq != uint64(i+1) {
				t.Errorf("%screate: point %d has Seq %d", rg.prefix, i+1, p.Seq)
			}
			got = append(got, fmt.Sprintf("%s %d->%d %s", kinds[p.Kind], p.From, p.To, p.Method))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%screate's points:\n%q\nwant\n%q", rg.prefix, got, want)
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Errorf("%screate's points differ between two fresh clusters:\n%v\n%v", rg.prefix, runs[0], runs[1])
		}
	}
}
