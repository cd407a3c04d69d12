package experiments

import "fmt"

// MustGet is Get that panics on a missing sample, for tests that assert on
// specific cells.
func (f *Figure) MustGet(label, x string) float64 {
	v, ok := f.Get(label, x)
	if !ok {
		panic(fmt.Sprintf("experiments: %s has no sample %q/%q", f.ID, label, x))
	}
	return v
}
