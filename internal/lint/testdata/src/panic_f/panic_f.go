// Package panic_f is a locus-vet fixture: bare panics in library code
// must be flagged unless sanctioned as must-helpers or marked invariant
// assertions.
package panic_f

import "errors"

func badBare(x int) {
	if x < 0 {
		panic("negative") // want "panic in library code"
	}
}

func badErr(err error) {
	if err != nil {
		panic(err) // want "panic in library code"
	}
}

// must is the conventional fail-on-setup-error helper.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func MustParse(s string) int {
	if s == "" {
		panic("empty")
	}
	return len(s)
}

func okMarkedSameLine(n int) {
	if n == 0 {
		panic("zero") // invariant: n was validated non-zero by the caller
	}
}

func okMarkedAbove(n int) {
	if n == 0 {
		// invariant: n was validated non-zero by the caller
		panic("zero")
	}
}

func okSuppressed() {
	panic("legacy") //locus:vet-allow panicdiscipline fixture: grandfathered
}

var errSentinel = errors.New("sentinel")

func okTypedError(x int) error {
	if x < 0 {
		return errSentinel
	}
	return nil
}
