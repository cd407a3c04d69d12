package replica

import (
	"time"

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

// RecordOp logs one successfully applied segment step.
func (r *Recorder) RecordOp(op *stream.ShardOp, now time.Time) {
	r.append(&Op{Kind: KindWindow, ShardOp: *op, ArrivedNs: now.UnixNano()})
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
