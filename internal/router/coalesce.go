package router

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/index"
	"dod/internal/retry"
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
	owner     string
	// peerCells are the cells of the op's neighborhood other shards own.
	peerCells map[string][][]int64
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
	var (
		ops     []segOp
		pending = map[uint64]struct{}{}
		gone    = map[uint64]struct{}{}
		head    = rt.head
		live    = len(rt.residents)
		segIdx  int
	)
	flush := func() bool {
		ok := rt.flushSegmentLocked(ctx, topo, now, reqID, segIdx, ops, head, out)
		segIdx++
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
}

// cellKey renders a cell coordinate vector into scratch for map lookups.
func cellKey(scratch []byte, c []int64) []byte {
	scratch = scratch[:0]
	for _, v := range c {
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(v))
	}
	return scratch
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
	// Who owns what: each op's owner and the cells of its neighborhood on
	// other shards, grouped per shard into wave one's probes and victims.
	byName := map[string]*shardWave{}
	var waves []*shardWave
	wave := func(name string) *shardWave {
		w := byName[name]
		if w == nil {
			w = &shardWave{name: name}
			byName[name] = w
			waves = append(waves, w)
		}
		return w
	}
	for j := range ops {
		op := &ops[j]
		op.owner = topo.Owner(op.cell)
		for radius := 0; radius <= rt.l2; radius++ {
			index.RingCells(op.cell, radius, func(c []int64) {
				o := topo.Owner(c)
				if o == op.owner {
					return // the owning shard splits its own cells locally
				}
				if op.peerCells == nil {
					op.peerCells = map[string][][]int64{}
				}
				op.peerCells[o] = append(op.peerCells[o], append([]int64(nil), c...))
			})
		}
		if op.admit {
			for o, cells := range op.peerCells {
				w := wave(o)
				w.probes = append(w.probes, SupportProbe{Point: op.pt, Cells: cells})
				w.probeOps = append(w.probeOps, j)
			}
		} else {
			w := wave(op.owner)
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

	// Wave one: read-only, so a retried call simply reads again.
	eachShard(waves, func(w *shardWave) {
		body := EncodeSupportBatch(SupportHeader{Victims: w.victims}, w.probes)
		key := fmt.Sprintf("%s|seg%d|w1|%s", reqID, segIdx, w.name)
		rt.met.supportRPCs.Inc()
		w.err = rt.callShard(ctx, topo, w.name, PathSupport, key, body, &w.support)
	})
	sort.Slice(waves, func(a, b int) bool { return waves[a].name < waves[b].name })
	for _, w := range waves {
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
	buckets := map[string][]int{}
	var kscratch []byte
	baseSeq := rt.seq
	admits := 0
	for q := range ops {
		sq := &ops[q]
		if sq.admit {
			admits++
			sq.seq = baseSeq + uint64(admits)
			for _, cells := range sq.peerCells {
				for _, c := range cells {
					kscratch = cellKey(kscratch, c)
					exact := index.ChebDist(sq.cell, c) > 1
					for _, i := range buckets[string(kscratch)] {
						si := &ops[i]
						if si.pt.ID == sq.pt.ID {
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
		if sq.peerCells != nil {
			kscratch = cellKey(kscratch, sq.cell)
			buckets[string(kscratch)] = append(buckets[string(kscratch)], q)
		}
	}

	// Wave two: each shard's ordered share of the segment.
	for j := range ops {
		op := &ops[j]
		w := wave(op.owner)
		delta := -1
		if op.admit {
			delta = +1
			w.ops = append(w.ops, stream.ShardOp{Kind: stream.OpAdmit, Point: op.pt, Seq: op.seq, Foreign: op.foreign})
			w.admitOps = append(w.admitOps, j)
		} else {
			w.ops = append(w.ops, stream.ShardOp{Kind: stream.OpEvict, ID: op.pt.ID})
		}
		for o, cells := range op.peerCells {
			pw := wave(o)
			pw.ops = append(pw.ops, stream.ShardOp{Kind: stream.OpSupport, Point: op.pt, Cells: cells, Delta: delta})
		}
	}
	eachShard(waves, func(w *shardWave) {
		body := EncodeIngestBatch(IngestBatchHeader{ArrivedNs: now.UnixNano(), Count: len(w.ops)}, w.ops)
		key := fmt.Sprintf("%s|seg%d|w2|%s", reqID, segIdx, w.name)
		w.err = rt.callShard(ctx, topo, w.name, PathShardIngestBatch, key, body, &w.ingest)
	})
	for _, w := range waves {
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
// partition). Shards whose breaker is open are skipped — scoring degrades
// to the reachable window rather than blocking.
func (rt *Router) Score(ctx context.Context, items []httpapi.BatchItem, lo, hi int, out []httpapi.ScoreLine) {
	topo := rt.topology()
	type probeSet struct {
		probes []SupportProbe
		lines  []int
	}
	perOwner := map[string]*probeSet{}
	ownersOf := make([][]string, hi-lo)
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
		center := topo.CellOf(it.Pt.Coords)
		byOwner := map[string][][]int64{}
		for radius := 0; radius <= rt.l2; radius++ {
			index.RingCells(center, radius, func(c []int64) {
				cc := append([]int64(nil), c...)
				o := topo.Owner(cc)
				byOwner[o] = append(byOwner[o], cc)
			})
		}
		owners := make([]string, 0, len(byOwner))
		for o := range byOwner {
			owners = append(owners, o)
		}
		sort.Strings(owners)
		ownersOf[i-lo] = owners
		for _, o := range owners {
			ps := perOwner[o]
			if ps == nil {
				ps = &probeSet{}
				perOwner[o] = ps
			}
			ps.probes = append(ps.probes, SupportProbe{Point: it.Pt, Cells: byOwner[o]})
			ps.lines = append(ps.lines, i)
		}
	}
	type ownerResult struct {
		open   bool
		errMsg string
	}
	results := map[string]*ownerResult{}
	lineCounts := make([]map[string]int, hi-lo)
	allOwners := make([]string, 0, len(perOwner))
	for o := range perOwner {
		allOwners = append(allOwners, o)
	}
	sort.Strings(allOwners)
	for _, o := range allOwners {
		ps := perOwner[o]
		res := &ownerResult{}
		results[o] = res
		if rt.breaker(o).State() == retry.BreakerOpen {
			res.open = true // degraded: count what the healthy shards can see
			continue
		}
		body := EncodeSupportBatch(SupportHeader{Limit: rt.cfg.K}, ps.probes)
		var resp SupportResponse
		rt.met.supportRPCs.Inc()
		if err := rt.callShard(ctx, topo, o, PathSupport, "", body, &resp); err != nil {
			res.errMsg = fmt.Sprintf("shard %s unavailable: %v", o, err)
			continue
		}
		if resp.Error != "" {
			res.errMsg = resp.Error
			continue
		}
		if len(resp.Counts) != len(ps.probes) {
			res.errMsg = fmt.Sprintf("shard %s: support answered %d counts for %d probes", o, len(resp.Counts), len(ps.probes))
			continue
		}
		for idx, j := range ps.lines {
			if lineCounts[j-lo] == nil {
				lineCounts[j-lo] = map[string]int{}
			}
			lineCounts[j-lo][o] = resp.Counts[idx]
		}
	}
	// Accumulate each line's owners in sorted order, stopping at K: an
	// unreachable owner only errors the lines that still needed its count.
	for i := lo; i < hi; i++ {
		owners := ownersOf[i-lo]
		if owners == nil {
			continue // already answered (parse error or dimension mismatch)
		}
		total := 0
		errMsg := ""
		for _, o := range owners {
			res := results[o]
			if res.open {
				continue
			}
			if res.errMsg != "" {
				errMsg = res.errMsg
				break
			}
			total += lineCounts[i-lo][o]
			if total >= rt.cfg.K {
				break // already an inlier; min(total, K) is decided
			}
		}
		if errMsg != "" {
			out[i] = httpapi.ScoreLine{ID: items[i].Pt.ID, Error: errMsg}
			continue
		}
		if total > rt.cfg.K {
			total = rt.cfg.K
		}
		out[i] = httpapi.ScoreLine{ID: items[i].Pt.ID, Neighbors: total, Outlier: total < rt.cfg.K}
	}
}
