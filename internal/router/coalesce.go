package router

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/index"
	"dod/internal/stream"
)

// The sharded tier's one ingest path. A window at capacity owes an eviction
// before every admission, and either can touch residents on several shards,
// so settling points one at a time would cost round trips in proportion to
// the batch. Instead a request is cut into SEGMENTS — maximal runs of lines
// TOGETHER WITH the evictions due before them — and each segment settles in
// two waves of concurrent calls, at most one per shard per wave:
//
//  1. Wave one is read-only. ONE /v1/support per shard carries
//     every staged point's cells on that shard and asks for the coordinates
//     of the FIFO victims the shard owns (the router stores none). Nothing
//     has changed anywhere yet, so the counts are exact against the
//     PRE-SEGMENT window; the pairwise pass below moves each count to its
//     point's admission instant from the points in hand — minus foreign
//     victims evicted at or before its line, plus foreign staged points
//     admitted before it — with the index's own acceptance rule.
//  2. Wave two is the only mutation. ONE /v1/shard/ingest_batch per shard
//     carries that shard's ORDERED list of the segment's operations on cells
//     it owns: its own admissions (with their settled foreign counts) and
//     evictions, and the +1/-1 every other shard's admission or eviction
//     owes its residents.
//
// Why order per shard is enough: a resident's count only ever changes by an
// operation on a point in its neighborhood, every such operation appears in
// its owner's list, and the list is in the global window's order — so each
// count walks through exactly the values it takes in a single-process
// Window, crossing K at the same operations. Verdict lines, Evicted counts,
// final counts, outlier sets and flip totals are byte-identical to the
// single-process Window's, and the round trips per request do not grow with
// the batch. A segment ends only where it must: at the end of the request,
// or when the FIFO head is itself a staged point (a request larger than
// the window), which has to commit before it can be evicted.
//
// Failure. A terminal wave-one failure (retries exhausted on any shard)
// fails every line of the segment and leaves the window untouched. A
// terminal wave-two failure on shard X fails the lines X owns; the other
// shards have applied the whole segment, and the router commits it —
// evictions of X's residents included. X then misses one segment's worth
// of operations: the admissions it did not take were still counted by its
// peers, it keeps victims its peers and the router have retired, and it
// misses the ±1s the segment owed its residents — until failover or a
// forced drain replaces its slice. Retries carry the same idempotency key per
// (request, segment, wave, shard), so a wave that lands on a promoted
// standby replays from the replicated cache instead.
//
// Scratch. Staging runs under rt.mu, so a segment is built on the router's
// own scratch (segScratch), reused from segment to segment: the op list,
// the neighbourhood walk and its cell arenas, and the waves with their
// inputs and the responses json.Unmarshal refills in place. The arenas grow
// to what segments use, and a scratch one large request grew past a bound
// is dropped after it (segScratch.release). Score runs concurrently under
// the front's fan-out and builds the same cell arenas per call.

// segOp is one operation of the current segment, in global window order:
// the eviction of a committed resident, or the admission of a staged line.
type segOp struct {
	admit     bool
	pt        geom.Point // an eviction's coordinates arrive with wave one
	line      int        // admission: index into the batch / output slice
	evictions int        // admission: evictions charged to its line
	seq       uint64     // admission: pre-assigned global sequence number
	foreign   int        // admission: settled cross-shard neighbor count
	failed    bool       // admission: its line was answered with an error
	cell      []int64
	owner     int // index of the owning shard in the segment's topology
	// peers are the cells of the op's neighborhood other shards own, one
	// group per shard.
	peers []ownerCells
	// next chains the pairwise pass's buckets: 1 + the previous op with
	// peers whose cell hashes alike, 0 at the end of the chain.
	next int
}

// ownerCells are the cells of one neighbourhood that one shard owns, in
// ring order, as views into a cellGrouper's arena.
type ownerCells struct {
	shard int // index into the topology's Shards
	cells [][]int64
}

// cellGrouper groups neighbourhood cells by owning shard on arenas: one
// flat array of cell coordinates, one of cell headers into it and one of
// groups. What it hands out stays valid until the next reset.
type cellGrouper struct {
	sc     index.CountScratch
	owner  []int // owner of each kept cell of the walk in progress
	flat   []int64
	heads  [][]int64
	groups []ownerCells
}

// neighborhoodCells is the cell count of a dim-dimensional neighbourhood of
// Chebyshev radius l2, (2·l2+1)^dim, capped at 1024: it only sizes Score's
// arenas, which grow past it if they must.
func neighborhoodCells(dim, l2 int) int {
	n := 1
	for i := 0; i < dim && n < 1024; i++ {
		n *= 2*l2 + 1
	}
	return min(n, 1024)
}

// newCellGrouper returns a grouper whose arenas hold n whole
// neighbourhoods of up to cells cells each, over the given number of
// shards, without growing.
func newCellGrouper(n, cells, dim, shards int) *cellGrouper {
	return &cellGrouper{
		flat:   make([]int64, 0, n*cells*dim),
		heads:  make([][]int64, 0, n*cells),
		groups: make([]ownerCells, 0, n*shards),
	}
}

// reset empties the arenas, keeping their capacity; append grows them by
// doubling past it.
func (g *cellGrouper) reset() {
	g.flat, g.heads, g.groups = g.flat[:0], g.heads[:0], g.groups[:0]
}

// group walks the neighbourhood of center out to Chebyshev radius l2 and
// returns its cells grouped by owning shard, shards in name order and each
// shard's cells in ring order, leaving out the cells shard skip owns (-1
// keeps them all).
func (g *cellGrouper) group(topo *Topology, center []int64, l2, skip int) []ownerCells {
	topo.init()
	dim := len(center)
	lo := len(g.flat)
	g.owner = g.owner[:0]
	g.sc.WalkNeighborhood(center, l2, func(c []int64) {
		if o := topo.OwnerIndex(c); o != skip {
			g.flat = append(g.flat, c...)
			g.owner = append(g.owner, o)
		}
	})
	flat := g.flat[lo:]
	first := len(g.groups)
	for _, s := range topo.byName {
		start := len(g.heads)
		for k, o := range g.owner {
			if o == s {
				g.heads = append(g.heads, flat[k*dim:(k+1)*dim:(k+1)*dim])
			}
		}
		if len(g.heads) > start {
			g.groups = append(g.groups, ownerCells{shard: s, cells: g.heads[start:len(g.heads):len(g.heads)]})
		}
	}
	return g.groups[first:len(g.groups):len(g.groups)]
}

// shardWave is one shard's share of a segment: what wave one asks it, what
// wave two tells it, and what it answered.
type shardWave struct {
	name      string
	probes    []SupportProbe
	probeOps  []int // op index of each probe
	victims   []uint64
	victimOps []int // op index of each victim
	ops       []stream.ShardOp
	admitOps  []int // op index of each OpAdmit in ops
	err       error
	support   SupportResponse
	ingest    IngestBatchResponse
}

// reset empties the wave for a segment on the named shard, keeping every
// buffer — the response slices too, which json.Unmarshal refills in place.
func (w *shardWave) reset(name string) {
	// json.Unmarshal decodes into a reused element without zeroing it, and
	// a result without an "error" must read as one without an error.
	results := w.ingest.Results[:cap(w.ingest.Results)]
	clear(results)
	*w = shardWave{
		name:      name,
		probes:    w.probes[:0],
		probeOps:  w.probeOps[:0],
		victims:   w.victims[:0],
		victimOps: w.victimOps[:0],
		ops:       w.ops[:0],
		admitOps:  w.admitOps[:0],
		support:   SupportResponse{Counts: w.support.Counts[:0], Victims: w.support.Victims[:0]},
		ingest:    IngestBatchResponse{Results: results[:0]},
	}
}

// segKeepOps and segKeepCells bound the segment scratch a router keeps
// between requests. A segment has up to about twice min(batch, capacity)
// ops, and every buffer of the scratch grows with its ops and the peer
// cells they keep, so one large request would otherwise set the router's
// footprint for life; a scratch past either bound is dropped after its
// request.
const (
	segKeepOps   = 1 << 12
	segKeepCells = 1 << 15
)

// segScratch is the segment staging scratch, reused from segment to
// segment under rt.mu.
type segScratch struct {
	ops           []segOp
	pending, gone map[uint64]struct{}
	cells         cellGrouper
	waves         []shardWave // one per shard of the segment's topology
	active        []*shardWave
	buckets       map[uint64]int // pairwise pass: cell hash → 1 + the last op with peers there
}

// release lets go of what a request left on the scratch: all of it if it
// outgrew segKeepOps ops or segKeepCells peer cells, else the references
// its waves still hold to the request's points.
func (s *segScratch) release() {
	if cap(s.ops) > segKeepOps || cap(s.cells.heads) > segKeepCells {
		*s = segScratch{}
		return
	}
	for i := range s.waves {
		w := &s.waves[i]
		clear(w.probes[:cap(w.probes)])
		clear(w.ops[:cap(w.ops)])
	}
}

// eachShard runs fn for every wave concurrently and waits for all of them.
func eachShard(waves []*shardWave, fn func(w *shardWave)) {
	if len(waves) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, w := range waves[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(waves[0])
	wg.Wait()
}

// ingestLocked runs one ingest batch through the two-wave segment protocol.
// Callers hold rt.mu.
func (rt *Router) ingestLocked(ctx context.Context, topo *Topology, now time.Time, reqID string, items []httpapi.BatchItem, out []httpapi.VerdictLine) {
	// The segment is staged against a private view of the window: head and
	// live are where the FIFO cursor and the resident count will stand once
	// the staged ops apply, gone and pending the IDs they remove and add.
	seg := &rt.seg
	if seg.pending == nil {
		seg.pending, seg.gone = map[uint64]struct{}{}, map[uint64]struct{}{}
	}
	var (
		ops     = seg.ops[:0]
		pending = seg.pending
		gone    = seg.gone
		head    = rt.head
		live    = len(rt.residents)
		segIdx  int
	)
	flush := func() bool {
		ok := rt.flushSegmentLocked(ctx, topo, now, reqID, segIdx, ops, head, out)
		segIdx++
		clear(ops) // let go of the request's points before the slice is reused
		ops = ops[:0]
		clear(pending)
		clear(gone)
		head, live = rt.head, len(rt.residents)
		return ok
	}
	horizonNs := int64(0)
	if rt.cfg.TTL > 0 {
		horizonNs = now.Add(-rt.cfg.TTL).UnixNano()
	}
	// evictionDue reports whether the window discipline owes an eviction
	// before the next admission: the window is full, or the FIFO head has
	// aged out. Staged points all arrive "now" and never age out within
	// their own request.
	evictionDue := func() bool {
		if rt.cfg.Capacity > 0 && live >= rt.cfg.Capacity {
			return true
		}
		return rt.cfg.TTL > 0 && head < len(rt.fifo) && rt.residents[rt.fifo[head]].arrivedNs < horizonNs
	}
	for i, it := range items {
		if it.Err != nil {
			continue // answered by the front
		}
		pt := it.Pt
		if pt.Dim() != rt.cfg.Dim {
			err := &errs.DimMismatchError{ID: pt.ID, Got: pt.Dim(), Want: rt.cfg.Dim}
			out[i] = httpapi.VerdictLine{ID: pt.ID, Error: err.Error()}
			continue
		}
		_, resident := rt.residents[pt.ID]
		_, evicted := gone[pt.ID]
		_, staged := pending[pt.ID]
		if (resident && !evicted) || staged {
			err := &errs.DuplicateIDError{ID: pt.ID}
			out[i] = httpapi.VerdictLine{ID: pt.ID, Error: err.Error()}
			continue
		}
		evictions := 0
		for evictionDue() {
			if head == len(rt.fifo) {
				// The FIFO head is a staged point: commit the segment so it
				// can be evicted like any other resident.
				if len(ops) == 0 {
					break // nothing resident and nothing staged
				}
				if !flush() {
					evictions = 0 // the failed segment's evictions did not happen
				}
				continue
			}
			id := rt.fifo[head]
			head++
			res, ok := rt.residents[id]
			if !ok {
				continue // a ghost slot: its resident was dropped by a forced drain
			}
			ops = append(ops, segOp{pt: geom.Point{ID: id}, cell: res.cell})
			gone[id] = struct{}{}
			live--
			evictions++
		}
		ops = append(ops, segOp{admit: true, pt: pt, line: i, evictions: evictions, cell: topo.CellOf(pt.Coords)})
		pending[pt.ID] = struct{}{}
		live++
	}
	flush()
	seg.ops = ops
	seg.release()
}

// cellHash folds a cell into the pairwise pass's bucket key. A bucket chain
// compares coordinates, so a collision costs a comparison, never a count.
func cellHash(c []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range c {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// flushSegmentLocked settles one staged segment — wave one, the pairwise
// pass, wave two — and commits it to the router's window bookkeeping, head
// being the FIFO cursor past the segment's victims. It reports false if the
// segment was abandoned with the window untouched. Callers hold rt.mu.
func (rt *Router) flushSegmentLocked(ctx context.Context, topo *Topology, now time.Time, reqID string, segIdx int, ops []segOp, head int, out []httpapi.VerdictLine) bool {
	if len(ops) == 0 {
		rt.head = head // ghost slots skipped on the way
		return true
	}
	seg := &rt.seg
	if len(seg.waves) != len(topo.Shards) {
		seg.waves = make([]shardWave, len(topo.Shards))
	}
	for s := range seg.waves {
		seg.waves[s].reset(topo.Shards[s].Name)
	}
	// Who owns what: each op's owner and the cells of its neighborhood on
	// other shards, grouped per shard into wave one's probes and victims.
	// Most ops keep few cells or none, so the arenas are not sized for whole
	// neighbourhoods.
	seg.cells.reset()
	for j := range ops {
		op := &ops[j]
		op.owner = topo.OwnerIndex(op.cell)
		op.peers = seg.cells.group(topo, op.cell, rt.l2, op.owner)
		if op.admit {
			for _, pc := range op.peers {
				w := &seg.waves[pc.shard]
				w.probes = append(w.probes, SupportProbe{Point: op.pt, Cells: pc.cells})
				w.probeOps = append(w.probeOps, j)
			}
		} else {
			w := &seg.waves[op.owner]
			w.victims = append(w.victims, op.pt.ID)
			w.victimOps = append(w.victimOps, j)
		}
	}
	failSegment := func(msg string) bool {
		for j := range ops {
			if ops[j].admit {
				out[ops[j].line] = httpapi.VerdictLine{ID: ops[j].pt.ID, Error: msg}
			}
		}
		return false
	}

	// Wave one: read-only, so a retried call simply reads again. Waves are
	// judged in shard-name order.
	seg.active = seg.active[:0]
	for _, s := range topo.byName {
		if w := &seg.waves[s]; len(w.probes) > 0 || len(w.victims) > 0 {
			seg.active = append(seg.active, w)
		}
	}
	eachShard(seg.active, func(w *shardWave) {
		body := EncodeSupportBatch(SupportHeader{Victims: w.victims}, w.probes)
		key := fmt.Sprintf("%s|seg%d|w1|%s", reqID, segIdx, w.name)
		rt.met.supportRPCs.Inc()
		w.err = rt.callShard(ctx, topo, w.name, PathSupport, key, body, &w.support)
	})
	for _, w := range seg.active {
		switch {
		case w.err != nil:
			return failSegment(fmt.Sprintf("shard %s unavailable: %v", w.name, w.err))
		case w.support.Error != "":
			return failSegment(w.support.Error)
		case len(w.support.Counts) != len(w.probes) || len(w.support.Victims) != len(w.victims):
			return failSegment(fmt.Sprintf("shard %s: support answered %d counts, %d victims for %d probes, %d victims",
				w.name, len(w.support.Counts), len(w.support.Victims), len(w.probes), len(w.victims)))
		}
		for idx, c := range w.support.Counts {
			ops[w.probeOps[idx]].foreign += c
		}
		for idx, coords := range w.support.Victims {
			ops[w.victimOps[idx]].pt.Coords = coords
		}
	}

	// Pairwise pass: move each admission's foreign count from the
	// pre-segment window to its own instant. Walking the ops in order, every
	// earlier op on another shard that neighbors the point changed what a
	// live support call would have returned: an eviction took one neighbor
	// away, an admission added one. The acceptance rule is the index's own —
	// cells within Chebyshev distance 1 of the probe's cell auto-accept,
	// farther cells get the exact distance check, a point never neighbors
	// its own ID — so the counts match bit for bit. Only ops with cells on
	// other shards can neighbor a point owned elsewhere, so only they are
	// bucketed, and only a point's foreign cells are searched.
	if seg.buckets == nil {
		seg.buckets = map[uint64]int{}
	}
	buckets := seg.buckets
	clear(buckets)
	baseSeq := rt.seq
	admits := 0
	for q := range ops {
		sq := &ops[q]
		if sq.admit {
			admits++
			sq.seq = baseSeq + uint64(admits)
			for _, pc := range sq.peers {
				for _, c := range pc.cells {
					exact := index.ChebDist(sq.cell, c) > 1
					for i := buckets[cellHash(c)]; i > 0; i = ops[i-1].next {
						si := &ops[i-1]
						if !slices.Equal(si.cell, c) || si.pt.ID == sq.pt.ID {
							continue
						}
						if exact && !geom.WithinDist(si.pt, sq.pt, rt.cfg.R) {
							continue
						}
						if si.admit {
							sq.foreign++
						} else {
							sq.foreign--
						}
					}
				}
			}
		}
		if len(sq.peers) > 0 {
			h := cellHash(sq.cell)
			sq.next = buckets[h]
			buckets[h] = q + 1
		}
	}

	// Wave two: each shard's ordered share of the segment.
	for j := range ops {
		op := &ops[j]
		w := &seg.waves[op.owner]
		delta := -1
		if op.admit {
			delta = +1
			w.ops = append(w.ops, stream.ShardOp{Kind: stream.OpAdmit, Point: op.pt, Seq: op.seq, Foreign: op.foreign})
			w.admitOps = append(w.admitOps, j)
		} else {
			w.ops = append(w.ops, stream.ShardOp{Kind: stream.OpEvict, ID: op.pt.ID})
		}
		for _, pc := range op.peers {
			pw := &seg.waves[pc.shard]
			pw.ops = append(pw.ops, stream.ShardOp{Kind: stream.OpSupport, Point: op.pt, Cells: pc.cells, Delta: delta})
		}
	}
	seg.active = seg.active[:0]
	for _, s := range topo.byName {
		if w := &seg.waves[s]; len(w.ops) > 0 {
			seg.active = append(seg.active, w)
		}
	}
	eachShard(seg.active, func(w *shardWave) {
		body := EncodeIngestBatch(IngestBatchHeader{ArrivedNs: now.UnixNano(), Count: len(w.ops)}, w.ops)
		key := fmt.Sprintf("%s|seg%d|w2|%s", reqID, segIdx, w.name)
		w.err = rt.callShard(ctx, topo, w.name, PathShardIngestBatch, key, body, &w.ingest)
	})
	for _, w := range seg.active {
		msg := ""
		switch {
		case w.err != nil:
			msg = fmt.Sprintf("shard %s unavailable: %v", w.name, w.err)
		case w.ingest.Error != "":
			msg = w.ingest.Error
		case len(w.ingest.Results) != len(w.admitOps):
			msg = fmt.Sprintf("shard %s: %d results for %d admissions", w.name, len(w.ingest.Results), len(w.admitOps))
		}
		for idx, j := range w.admitOps {
			op := &ops[j]
			switch {
			case msg != "":
				out[op.line] = httpapi.VerdictLine{ID: op.pt.ID, Error: msg}
			case w.ingest.Results[idx].Error != "":
				out[op.line] = httpapi.VerdictLine{ID: op.pt.ID, Error: w.ingest.Results[idx].Error}
			default:
				res := w.ingest.Results[idx]
				out[op.line] = httpapi.VerdictLine{
					ID: res.ID, Seq: res.Seq, Neighbors: res.Neighbors,
					Outlier: res.Outlier, Evicted: op.evictions,
				}
				continue
			}
			op.failed = true
		}
	}

	// Commit in window order. The whole segment's sequence numbers are
	// consumed, success or not — they were baked into the wave-two bodies
	// before any outcome was known, so a failed line leaves a gap rather
	// than renumbering its successors.
	arrivedNs := now.UnixNano()
	for j := range ops {
		op := &ops[j]
		switch {
		case !op.admit:
			delete(rt.residents, op.pt.ID)
			rt.met.evictions.Inc()
		case !op.failed:
			rt.fifo = append(rt.fifo, op.pt.ID)
			rt.residents[op.pt.ID] = resident{cell: op.cell, arrivedNs: arrivedNs}
		}
	}
	rt.head = head
	rt.reclaimFifoLocked()
	rt.seq = baseSeq + uint64(admits)
	return true
}

// Score scores lines [lo, hi) with one read-only support RPC per owning
// shard for the whole range: each probe's neighborhood cells are
// grouped by owner, every owner reports its count capped at K, and the
// capped sum equals the single-process count (min distributes over the
// partition). Shards that are down are skipped — scoring degrades
// to the reachable window rather than blocking. Score runs concurrently
// under the front's fan-out, so its arenas are its own.
func (rt *Router) Score(ctx context.Context, items []httpapi.BatchItem, lo, hi int, out []httpapi.ScoreLine) {
	topo := rt.topology()
	n, shards := hi-lo, len(topo.Shards)
	// Score keeps every cell of a line's neighbourhood, so its arenas are
	// sized for n whole neighbourhoods.
	cells := newCellGrouper(n, rt.cellsPer, rt.cfg.Dim, shards)
	// Shard s's probes and their lines are probes[s*n:][:nProbes[s]] and
	// lines[s*n:][:nProbes[s]]; counts[(i-lo)*shards+s] is line i's answer
	// from shard s.
	type lineCount struct {
		n     int
		owned bool // s owns some of the line's cells
	}
	probes := make([]SupportProbe, n*shards)
	lines := make([]int, n*shards)
	nProbes := make([]int, shards)
	counts := make([]lineCount, n*shards)
	var center [8]int64
	for i := lo; i < hi; i++ {
		it := items[i]
		if it.Err != nil {
			continue // answered by the front
		}
		if it.Pt.Dim() != rt.cfg.Dim {
			err := &errs.DimMismatchError{ID: it.Pt.ID, Got: it.Pt.Dim(), Want: rt.cfg.Dim}
			out[i] = httpapi.ScoreLine{ID: it.Pt.ID, Error: err.Error()}
			continue
		}
		for _, pc := range cells.group(topo, topo.cellInto(center[:0], it.Pt.Coords), rt.l2, -1) {
			s := pc.shard
			probes[s*n+nProbes[s]] = SupportProbe{Point: it.Pt, Cells: pc.cells}
			lines[s*n+nProbes[s]] = i
			nProbes[s]++
			counts[(i-lo)*shards+s].owned = true
		}
	}
	type ownerResult struct {
		open   bool
		errMsg string
	}
	results := make([]ownerResult, shards)
	var resp SupportResponse
	for _, s := range topo.byName {
		ps := probes[s*n:][:nProbes[s]]
		if len(ps) == 0 {
			continue
		}
		name, res := topo.Shards[s].Name, &results[s]
		if rt.shardDown(name) {
			res.open = true // degraded: count what the healthy shards can see
			continue
		}
		body := EncodeSupportBatch(SupportHeader{Limit: rt.cfg.K}, ps)
		resp = SupportResponse{Counts: resp.Counts[:0]}
		rt.met.supportRPCs.Inc()
		if err := rt.callShard(ctx, topo, name, PathSupport, "", body, &resp); err != nil {
			res.errMsg = fmt.Sprintf("shard %s unavailable: %v", name, err)
			continue
		}
		if resp.Error != "" {
			res.errMsg = resp.Error
			continue
		}
		if len(resp.Counts) != len(ps) {
			res.errMsg = fmt.Sprintf("shard %s: support answered %d counts for %d probes", name, len(resp.Counts), len(ps))
			continue
		}
		for idx, j := range lines[s*n:][:len(ps)] {
			counts[(j-lo)*shards+s].n = resp.Counts[idx]
		}
	}
	// Accumulate each line's owners in name order, stopping at K: an
	// unreachable owner only errors the lines that still needed its count.
	for i := lo; i < hi; i++ {
		row := counts[(i-lo)*shards:][:shards]
		probed, total, errMsg := false, 0, ""
		for _, s := range topo.byName {
			if !row[s].owned {
				continue
			}
			probed = true
			if results[s].open {
				continue
			}
			if errMsg = results[s].errMsg; errMsg != "" {
				break
			}
			total += row[s].n
			if total >= rt.cfg.K {
				break // already an inlier; min(total, K) is decided
			}
		}
		switch {
		case !probed:
			continue // already answered (parse error or dimension mismatch)
		case errMsg != "":
			out[i] = httpapi.ScoreLine{ID: items[i].Pt.ID, Error: errMsg}
			continue
		}
		if total > rt.cfg.K {
			total = rt.cfg.K
		}
		out[i] = httpapi.ScoreLine{ID: items[i].Pt.ID, Neighbors: total, Outlier: total < rt.cfg.K}
	}
}
