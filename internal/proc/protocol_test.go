package proc

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestMethodTable pins the proc protocol's declared surface: the proc.*
// handlers a booted site registers are exactly the declared descriptors,
// and every request/response method is at-most-once (each one changes
// remote state). A reclassification must fail here, not pass a review.
func TestMethodTable(t *testing.T) {
	nw := netsim.New(netsim.DefaultCosts())
	t.Cleanup(nw.Close)
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}}}})
	if err != nil {
		t.Fatal(err)
	}
	node := nw.AddSite(1)
	k, err := fs.BootSite(node, cfg, nw.Meter(), storage.Costs{})
	if err != nil {
		t.Fatal(err)
	}
	NewManager(node, k, "vax")

	twoWay := []struct {
		name       string
		atMostOnce bool
	}{
		{mRun.Name, mRun.AtMostOnce},
		{mSignal.Name, mSignal.AtMostOnce},
		{mFDToken.Name, mFDToken.AtMostOnce},
		{mFDYank.Name, mFDYank.AtMostOnce},
		{mPipeOpen.Name, mPipeOpen.AtMostOnce},
		{mPipeRead.Name, mPipeRead.AtMostOnce},
		{mPipeWrite.Name, mPipeWrite.AtMostOnce},
		{mPipeClose.Name, mPipeClose.AtMostOnce},
		{mMigrate.Name, mMigrate.AtMostOnce},
		{mDevRead.Name, mDevRead.AtMostOnce},
		{mDevWrite.Name, mDevWrite.AtMostOnce},
	}
	names := []string{mChildExit.Name, mMigrateGone.Name}
	for _, m := range twoWay {
		if !m.atMostOnce {
			t.Errorf("%s is not declared at-most-once", m.name)
		}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for i, name := range names {
		if !strings.HasPrefix(name, "proc.") {
			t.Errorf("method name %q lacks the proc. prefix", name)
		}
		if i > 0 && names[i-1] == name {
			t.Errorf("method name %q declared twice", name)
		}
	}
	var got []string
	for _, name := range node.Methods() {
		if strings.HasPrefix(name, "proc.") {
			got = append(got, name)
		}
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("registered handlers differ from the declared descriptors:\n got  %v\n want %v", got, names)
	}
}
