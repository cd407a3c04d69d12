// Package router implements the sharded serving tier in front of N
// dodserve shards: cell-based partitioning of the sliding window, a
// consistent-hash ring over cell blocks, the codec-framed shard wire
// protocol, and the stateless router (cmd/dodroute) — the backend the
// NDJSON front end (internal/httpapi) serves the shards through.
//
// Partitioning follows the paper's Cell-Based layout (Lemma 3.1): a
// point's outlier verdict depends only on its grid cell and the bounded
// ring of cells within Chebyshev distance ⌈2√d⌉. Cells are grouped into
// square blocks of Block cells per side, and blocks — not individual
// cells — are placed on a consistent-hash ring. Hashing whole blocks keeps
// ring expansion shard-local for interior cells (a cell at least L2 cells
// from its block edge has its entire neighborhood in the same block);
// only boundary cells need the cross-shard support protocol.
//
// A Topology value is the shared ownership contract: the router and every
// shard hold byte-identical copies (pushed as JSON on /v1/shard/topology),
// so any party can answer "which shard owns cell c?" locally and
// deterministically — the ring hash is seed-free FNV-64a, never
// process-local randomness.
package router

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"dod/internal/detect"
	"dod/internal/errs"
)

// DefaultVnodes is the virtual-node count per shard on the consistent-hash
// ring. More vnodes smooth block distribution across shards.
const DefaultVnodes = 64

// DefaultBlock is the default block side in cells. With L2 = ⌈2√d⌉ (3 in
// 2D), a 16-cell block keeps the neighborhood of most interior cells
// entirely shard-local while still spreading load across shards.
const DefaultBlock = 16

// ShardInfo identifies one dodserve shard: its cluster-unique name (the
// ring hashes names, so renaming a shard moves its blocks) and base URL.
// Standby, when set, is the base URL of a warm standby replicating this
// shard's window — promotion swaps it into URL without touching the name,
// so ownership (which hashes names only) never moves.
type ShardInfo struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Standby string `json:"standby,omitempty"`
}

// Topology is the cell-ownership contract shared by the router and every
// shard. Two processes holding equal Topology values always agree on which
// shard owns which cell; the router bumps Epoch and re-pushes on every
// membership change (drain, failover) so shards can reject support calls
// routed under a stale view.
type Topology struct {
	Epoch  int64       `json:"epoch"`
	Dim    int         `json:"dim"`
	R      float64     `json:"r"`
	K      int         `json:"k"`
	Block  int         `json:"block"`  // block side, in cells
	Vnodes int         `json:"vnodes"` // virtual nodes per shard
	Shards []ShardInfo `json:"shards"`

	once   sync.Once
	ring   []ringPoint
	side   float64
	byName []int // indices into Shards in shard-name order
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int // index into Shards
}

// Validate rejects unusable topologies; failures match errs.ErrBadParams.
func (t *Topology) Validate() error {
	if t.Dim < 1 {
		return errs.BadParams("topology dimension must be >= 1, got %d", t.Dim)
	}
	if t.R <= 0 {
		return errs.BadParams("topology r must be positive, got %g", t.R)
	}
	if t.K < 1 {
		return errs.BadParams("topology k must be >= 1, got %d", t.K)
	}
	if len(t.Shards) == 0 {
		return errs.BadParams("topology needs at least one shard")
	}
	seen := make(map[string]bool, len(t.Shards))
	for _, s := range t.Shards {
		if s.Name == "" {
			return errs.BadParams("topology shard with empty name")
		}
		if seen[s.Name] {
			return errs.BadParams("topology shard name %q duplicated", s.Name)
		}
		seen[s.Name] = true
	}
	if t.Block < 0 || t.Vnodes < 0 {
		return errs.BadParams("topology block and vnodes must be >= 0")
	}
	return nil
}

// init lazily builds the derived ring and cell geometry. Topologies travel
// as JSON, so the derived state cannot ride along; it is rebuilt
// deterministically from the marshaled fields on first use.
func (t *Topology) init() {
	t.once.Do(func() {
		if t.Block <= 0 {
			t.Block = DefaultBlock
		}
		if t.Vnodes <= 0 {
			t.Vnodes = DefaultVnodes
		}
		t.side = detect.CellSide(t.Dim, t.R)
		t.ring = make([]ringPoint, 0, len(t.Shards)*t.Vnodes)
		var buf [8]byte
		for si, s := range t.Shards {
			for v := 0; v < t.Vnodes; v++ {
				h := fnv.New64a()
				h.Write([]byte(s.Name))
				h.Write([]byte{'#'})
				putUint64(buf[:], uint64(v))
				h.Write(buf[:])
				t.ring = append(t.ring, ringPoint{hash: h.Sum64(), shard: si})
			}
		}
		sort.Slice(t.ring, func(i, j int) bool {
			if t.ring[i].hash != t.ring[j].hash {
				return t.ring[i].hash < t.ring[j].hash
			}
			// Tie-break by shard index so equal hashes (vanishingly rare but
			// possible) never make ownership order-dependent.
			return t.ring[i].shard < t.ring[j].shard
		})
		t.byName = make([]int, len(t.Shards))
		for i := range t.byName {
			t.byName[i] = i
		}
		sort.Slice(t.byName, func(i, j int) bool { return t.Shards[t.byName[i]].Name < t.Shards[t.byName[j]].Name })
	})
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// CellOf maps point coordinates to integer cell coordinates, with the same
// floor expression the incremental index uses.
func (t *Topology) CellOf(coords []float64) []int64 {
	return t.cellInto(make([]int64, 0, len(coords)), coords)
}

// cellInto is CellOf appending to dst, so a caller that only walks the
// cell's neighbourhood can keep it on the stack.
func (t *Topology) cellInto(dst []int64, coords []float64) []int64 {
	t.init()
	for _, v := range coords {
		dst = append(dst, int64(math.Floor(v/t.side)))
	}
	return dst
}

// floorDiv is integer division rounding toward negative infinity, so
// blocks tile space uniformly across the origin.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// blockHash positions a cell's block on the hash circle: FNV-64a over the
// block coordinates' little-endian bytes, spelled out so the per-cell
// ownership lookups of a neighborhood walk allocate nothing.
func (t *Topology) blockHash(cell []int64) uint64 {
	t.init()
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range cell {
		b := uint64(floorDiv(c, int64(t.Block)))
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime64
			b >>= 8
		}
	}
	return h
}

// Owner returns the name of the shard owning the given cell: the first
// virtual node at or clockwise of the cell's block hash.
func (t *Topology) Owner(cell []int64) string {
	if i := t.OwnerIndex(cell); i >= 0 {
		return t.Shards[i].Name
	}
	return ""
}

// OwnerIndex is Owner as an index into Shards, -1 for a topology without
// shards: the router groups a neighbourhood's cells by it, comparing
// integers rather than names.
func (t *Topology) OwnerIndex(cell []int64) int {
	t.init()
	if len(t.ring) == 0 {
		return -1
	}
	h := t.blockHash(cell)
	i := sort.Search(len(t.ring), func(i int) bool { return t.ring[i].hash >= h })
	if i == len(t.ring) {
		i = 0
	}
	return t.ring[i].shard
}

// ShardURL returns the base URL registered for a shard name, or "".
func (t *Topology) ShardURL(name string) string {
	for _, s := range t.Shards {
		if s.Name == name {
			return s.URL
		}
	}
	return ""
}

// Standby returns the standby URL registered for a shard name, or "".
func (t *Topology) Standby(name string) string {
	for _, s := range t.Shards {
		if s.Name == name {
			return s.Standby
		}
	}
	return ""
}

// Promote returns a copy of the topology with the named shard served by
// its standby URL and the epoch advanced — the ownership view after a
// failover. The shard keeps its name, so no blocks move; only the address
// behind the name changes.
func (t *Topology) Promote(name string) (*Topology, error) {
	nt := t.Clone()
	nt.Epoch = t.Epoch + 1
	for i := range nt.Shards {
		if nt.Shards[i].Name != name {
			continue
		}
		if nt.Shards[i].Standby == "" {
			return nil, errs.BadParams("shard %q has no standby to promote", name)
		}
		nt.Shards[i].URL = nt.Shards[i].Standby
		nt.Shards[i].Standby = ""
		return nt, nil
	}
	return nil, errs.BadParams("shard %q not in topology", name)
}

// Without returns a copy of the topology with the named shard removed and
// the epoch advanced — the ownership view after a drain. The copy shares
// no derived state with the original.
func (t *Topology) Without(name string) *Topology {
	t.init()
	nt := &Topology{
		Epoch:  t.Epoch + 1,
		Dim:    t.Dim,
		R:      t.R,
		K:      t.K,
		Block:  t.Block,
		Vnodes: t.Vnodes,
	}
	for _, s := range t.Shards {
		if s.Name != name {
			nt.Shards = append(nt.Shards, s)
		}
	}
	return nt
}

// Clone returns a deep copy sharing no derived state.
func (t *Topology) Clone() *Topology {
	nt := &Topology{
		Epoch:  t.Epoch,
		Dim:    t.Dim,
		R:      t.R,
		K:      t.K,
		Block:  t.Block,
		Vnodes: t.Vnodes,
		Shards: append([]ShardInfo(nil), t.Shards...),
	}
	return nt
}
