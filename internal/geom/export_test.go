package geom

// Adjacent reports whether r and s touch without overlapping interiors:
// they share a boundary along exactly the dimensions where one's Max equals
// the other's Min, and overlap in every other dimension.
func (r Rect) Adjacent(s Rect) bool {
	touching := false
	for i := range r.Min {
		if r.Max[i] < s.Min[i] || s.Max[i] < r.Min[i] {
			return false // gap in dimension i: disjoint, not adjacent
		}
		if r.Max[i] == s.Min[i] || s.Max[i] == r.Min[i] {
			touching = true
		}
	}
	return touching
}
