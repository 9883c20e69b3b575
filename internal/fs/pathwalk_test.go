package fs

import (
	"slices"
	"strings"
	"testing"
)

// FuzzNextComp: walking a path in place yields exactly the components
// that splitting it on "/" and dropping the empty and "." ones did.
func FuzzNextComp(f *testing.F) {
	for _, p := range []string{"/", "/d/f0007", "//d//f", "/d/./f/", "/d/f/.", "/d@@/f", "/a/../f", "relative", "", ".", "/./", "a//b/", "/.../.x/."} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) {
		var want []string
		for _, c := range strings.Split(path, "/") {
			if c != "" && c != "." {
				want = append(want, c)
			}
		}
		var got []string
		for c, at := nextComp(path, 0); c != ""; c, at = nextComp(path, at) {
			if path[at-len(c):at] != c {
				t.Fatalf("nextComp(%q) returned %q ending at %d, which is %q there", path, c, at, path[at-len(c):at])
			}
			got = append(got, c)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("nextComp walks %q as %q, want %q", path, got, want)
		}
	})
}
