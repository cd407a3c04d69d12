package stream

import "dod/internal/geom"

// slotChunkLen is how many resident slots one chunk holds.
const slotChunkLen = 1024

// slotChunk is a fixed block of resident slots: the entries, and their
// coordinates, Dim values each. A chunk never moves, so an *entry and its
// coordinate view stay valid for as long as the resident lives.
type slotChunk struct {
	entries [slotChunkLen]entry
	coords  []float64
}

// slots holds a ShardWindow's residents in tag-addressed slots: the tag a
// resident is filed under in the index is its slot here, so a neighbour
// walk reaches each neighbour's entry by arithmetic, and a window at
// capacity reuses the slots its evictions free instead of allocating per
// point.
type slots struct {
	dim    int
	chunks []*slotChunk
	free   []uint32 // released tags, reused last in, first out
	next   uint32   // the tags below next have been handed out
}

// alloc files p in a free slot, copying its coordinates in, and returns the
// slot's tag and entry. Every field but pt is the caller's to set.
func (s *slots) alloc(p geom.Point) (uint32, *entry) {
	var tag uint32
	if k := len(s.free) - 1; k >= 0 {
		tag, s.free = s.free[k], s.free[:k]
	} else {
		tag = s.next
		s.next++
		if int(tag/slotChunkLen) == len(s.chunks) {
			s.chunks = append(s.chunks, &slotChunk{coords: make([]float64, slotChunkLen*s.dim)})
		}
	}
	ch, i := s.chunks[tag/slotChunkLen], int(tag%slotChunkLen)
	xs := ch.coords[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
	copy(xs, p.Coords)
	e := &ch.entries[i]
	*e = entry{pt: geom.Point{ID: p.ID, Coords: xs}}
	return tag, e
}

// at returns the entry in slot tag.
func (s *slots) at(tag uint32) *entry {
	return &s.chunks[tag/slotChunkLen].entries[tag%slotChunkLen]
}

// release frees slot tag for the next alloc.
func (s *slots) release(tag uint32) {
	*s.at(tag) = entry{}
	s.free = append(s.free, tag)
}
