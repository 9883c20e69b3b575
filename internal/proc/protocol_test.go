package proc

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestMethodTable pins the proc protocol's declared surface: the proc.*
// handlers a booted site registers are exactly the declared descriptors,
// and every request/response method is at-most-once (each one changes
// remote state). A reclassification must fail here, not pass a review.
func TestMethodTable(t *testing.T) {
	c := cluster.Simple(1)
	t.Cleanup(c.Close)
	node := c.Net.Node(1)
	NewManager(node, c.K(1), "vax")

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
