package sample

// NonEmptyBuckets returns the ordinals with positive estimated counts.
func (h *Histogram) NonEmptyBuckets() []int {
	var out []int
	for ord, c := range h.Counts {
		if c > 0 {
			out = append(out, ord)
		}
	}
	return out
}
