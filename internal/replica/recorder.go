package replica

import (
	"dod/internal/geom"
	"dod/internal/obs"
	"dod/internal/stream"
)

// Recorder turns window mutations into log appends. It implements
// stream.OpRecorder (the window calls it with the window mutex held, so
// append order is mutation order) plus the two serving-layer record points
// the window cannot see: topology installs and idempotency-cache entries.
type Recorder struct {
	log      *Log
	recorded *obs.Counter
}

// NewRecorder builds a recorder appending to log. A non-nil registry gets
// the recorded-op counter.
func NewRecorder(log *Log, reg *obs.Registry) *Recorder {
	r := &Recorder{log: log}
	if reg != nil {
		r.recorded = reg.Counter("dod_replica_ops_total", "replication log ops", obs.L("dir", "recorded"))
	}
	return r
}

func (r *Recorder) append(op *Op) {
	r.log.Append(op)
	if r.recorded != nil {
		r.recorded.Inc()
	}
}

// RecordAdmit logs one successful admission.
func (r *Recorder) RecordAdmit(p geom.Point, seq uint64, arrivedNs int64, foreign int) {
	r.append(&Op{Kind: KindAdmit, Point: p, PointSeq: seq, ArrivedNs: arrivedNs, Foreign: foreign})
}

// RecordEvict logs one successful eviction.
func (r *Recorder) RecordEvict(id uint64) {
	r.append(&Op{Kind: KindEvict, ID: id})
}

// RecordSupport logs one applied neighbor-count delta.
func (r *Recorder) RecordSupport(p geom.Point, cells [][]int64, delta int) {
	r.append(&Op{Kind: KindSupport, Point: p, Cells: cells, Delta: delta})
}

// RecordImport logs one successful entry import.
func (r *Recorder) RecordImport(entries []stream.ExportedEntry) {
	r.append(&Op{Kind: KindImport, Entries: entries})
}

// RecordTopology logs one installed topology epoch (raw JSON).
func (r *Recorder) RecordTopology(raw []byte) {
	r.append(&Op{Kind: KindTopology, Raw: raw})
}

// RecordDedupe logs one idempotency-cache entry: the request ID and the
// response the primary recorded for it.
func (r *Recorder) RecordDedupe(reqID string, status int, resp []byte) {
	r.append(&Op{Kind: KindDedupe, ReqID: reqID, Status: status, Raw: resp})
}
