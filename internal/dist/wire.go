package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dod/internal/codec"
	"dod/internal/mapreduce"
	"dod/internal/obs"
)

// Wire protocol. A task or result message body is a sequence of
// internal/codec frames: one JSON header frame (control plane — small,
// debuggable) followed by bulk-data frames in codec binary format (data
// plane — the same serialized bytes the in-process engine shuffles, so the
// coordinator's byte counters measure real network shuffle volume), sealed
// by a codec.FrameSum integrity frame so transport corruption anywhere in
// a body is a typed decode failure, never a silently wrong task or result.
//
// Task body:    header, then frameSplit (map) or frameGroup* (reduce).
// Result body:  header, then frameBucket* (map: one per reducer, KV list)
//
//	or frameOutput (reduce: KV list).
//
// Both end with the integrity frame.
const (
	frameHeader      = codec.FrameHeader // read by codec.DecodeSealed
	frameSplit  byte = 2
	frameGroup  byte = 3 // uvarint key + codec bytes-list of values
	frameBucket byte = 4
	frameOutput byte = 5
)

// HTTP endpoints served by the coordinator.
const (
	pathJoin   = "/dist/v1/join"
	pathPoll   = "/dist/v1/poll"
	pathResult = "/dist/v1/result"
	pathNack   = "/dist/v1/nack"
	pathReady  = "/readyz"
)

// headerDispatch duplicates the dispatch ID of a task response in an HTTP
// header. If the body arrives corrupted the worker cannot read the ID out
// of it, but it can still nack the dispatch by this header so the
// coordinator re-queues immediately instead of waiting for the dispatch's
// deadline.
const headerDispatch = "X-Dod-Dispatch"

// maxPresize caps the buffer readBody reserves from a declared length
// before any byte arrives, so a lying Content-Length cannot reserve
// gigabytes; a longer body grows as its bytes arrive.
const maxPresize = 64 << 20

// readBody reads r to the end. When the body's declared length (an HTTP
// Content-Length, -1 if unknown) is positive and at most both limit and
// maxPresize, it reads into one buffer of that size plus bytes.MinRead, so
// the read that meets the end needs no growth; otherwise the buffer grows
// as bytes arrive, as io.ReadAll's does. Errors are r's.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared <= 0 || declared > min(limit, maxPresize) {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, declared+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// taskHeader is the control-plane header of a dispatched task.
type taskHeader struct {
	Job         uint64  `json:"job"`
	Phase       string  `json:"phase"` // "map" or "reduce"
	Task        int     `json:"task"`
	Dispatch    uint64  `json:"dispatch"` // unique per dispatch, distinguishes duplicates
	NumReducers int     `json:"numReducers,omitempty"`
	SplitName   string  `json:"splitName,omitempty"`
	Spec        JobSpec `json:"spec"`
}

// resultHeader is the control-plane header of a task result.
type resultHeader struct {
	Job      uint64     `json:"job"`
	Phase    string     `json:"phase"`
	Task     int        `json:"task"`
	Dispatch uint64     `json:"dispatch"`
	Worker   string     `json:"worker"`
	Err      string     `json:"err,omitempty"` // non-empty: task attempt failed on the worker
	Metric   wireMetric `json:"metric"`
	Spans    []wireSpan `json:"spans,omitempty"`
}

// wireMetric is mapreduce.TaskMetric flattened for JSON transport.
type wireMetric struct {
	DurationNs int64            `json:"durationNs"`
	RecordsIn  int64            `json:"recordsIn"`
	RecordsOut int64            `json:"recordsOut"`
	BytesIn    int64            `json:"bytesIn"`
	BytesOut   int64            `json:"bytesOut"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

func metricToWire(m mapreduce.TaskMetric) wireMetric {
	return wireMetric{
		DurationNs: int64(m.Duration),
		RecordsIn:  m.RecordsIn, RecordsOut: m.RecordsOut,
		BytesIn: m.BytesIn, BytesOut: m.BytesOut,
		Counters: m.Counters,
	}
}

func metricFromWire(w wireMetric) mapreduce.TaskMetric {
	return mapreduce.TaskMetric{
		Duration:  time.Duration(w.DurationNs),
		RecordsIn: w.RecordsIn, RecordsOut: w.RecordsOut,
		BytesIn: w.BytesIn, BytesOut: w.BytesOut,
		Counters: w.Counters,
	}
}

// wireSpan is obs.Span flattened for JSON transport, so /metrics and
// Result.Trace() on the coordinator side cover work done on remote workers.
type wireSpan struct {
	Name        string     `json:"name"`
	StartUnixNs int64      `json:"startUnixNs"`
	DurationNs  int64      `json:"durationNs"`
	Attrs       []wireAttr `json:"attrs,omitempty"`
}

type wireAttr struct {
	K string `json:"k"`
	V string `json:"v"`
}

func spansToWire(spans []obs.Span) []wireSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]wireSpan, 0, len(spans))
	for _, s := range spans {
		ws := wireSpan{Name: s.Name, StartUnixNs: s.Start.UnixNano(), DurationNs: int64(s.Duration)}
		for _, a := range s.Attrs {
			ws.Attrs = append(ws.Attrs, wireAttr{K: a.Key, V: a.Value})
		}
		out = append(out, ws)
	}
	return out
}

func spansFromWire(spans []wireSpan) []obs.Span {
	if len(spans) == 0 {
		return nil
	}
	out := make([]obs.Span, 0, len(spans))
	for _, ws := range spans {
		s := obs.Span{Name: ws.Name, Start: time.Unix(0, ws.StartUnixNs), Duration: time.Duration(ws.DurationNs)}
		for _, a := range ws.Attrs {
			s.Attrs = append(s.Attrs, obs.Attr{Key: a.K, Value: a.V})
		}
		out = append(out, s)
	}
	return out
}

// encodeMapTaskBody builds the wire body of a map task dispatch.
func encodeMapTaskBody(h taskHeader, split mapreduce.Split) ([]byte, error) {
	buf, err := sizedBody(h, codec.FrameLen(len(split.Data)))
	if err != nil {
		return nil, err
	}
	return codec.AppendSumFrame(codec.AppendFrame(buf, frameSplit, split.Data)), nil
}

// encodeReduceTaskBody builds the wire body of a reduce task dispatch: one
// group frame per key group, written straight into the body.
func encodeReduceTaskBody(h taskHeader, groups []mapreduce.Group) ([]byte, error) {
	size := 0
	for _, g := range groups {
		size += codec.FrameLen(codec.GroupLen(g.Key, g.Values))
	}
	buf, err := sizedBody(h, size)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		buf = append(buf, frameGroup)
		buf = binary.AppendUvarint(buf, uint64(codec.GroupLen(g.Key, g.Values)))
		buf = binary.AppendUvarint(buf, g.Key)
		buf = codec.AppendBytesList(buf, g.Values)
	}
	return codec.AppendSumFrame(buf), nil
}

// decodeTaskBody parses a dispatched task. Exactly one of mt/rt is non-nil,
// chosen by the header phase. Payload slices alias body.
func decodeTaskBody(body []byte) (h taskHeader, mt *mapreduce.MapTask, rt *mapreduce.ReduceTask, err error) {
	var split []byte
	splits := 0
	var groups []mapreduce.Group
	err = codec.DecodeSealed(body, &h, func(kind byte, payload []byte) error {
		switch {
		case kind == frameSplit && h.Phase == "map":
			split = payload
			splits++
		case kind == frameGroup && h.Phase == "reduce":
			key, m := binary.Uvarint(payload)
			if m <= 0 {
				return codec.ErrTruncated
			}
			values, _, err := codec.DecodeBytesList(payload[m:])
			if err != nil {
				return err
			}
			groups = append(groups, mapreduce.Group{Key: key, Values: values})
		default:
			return codec.WireErrorf("dist: unexpected frame kind %d in %q task", kind, h.Phase)
		}
		return nil
	})
	if err != nil {
		return taskHeader{}, nil, nil, err
	}
	switch h.Phase {
	case "map":
		if splits != 1 {
			return taskHeader{}, nil, nil, codec.WireErrorf("dist: map task carries %d split frames, want 1", splits)
		}
		return h, &mapreduce.MapTask{
			TaskID: h.Task, NumReducers: h.NumReducers,
			Split: mapreduce.Split{Name: h.SplitName, Data: split},
		}, nil, nil
	case "reduce":
		return h, nil, &mapreduce.ReduceTask{TaskID: h.Task, Groups: groups}, nil
	default:
		return taskHeader{}, nil, nil, codec.WireErrorf("dist: unknown task phase %q", h.Phase)
	}
}

// encodeMapResultBody builds the wire body of a successful map attempt: one
// bucket frame per reducer (possibly empty), in reducer order, each the
// AppendKVs list of the bucket's records, written from its columns.
func encodeMapResultBody(h resultHeader, res *mapreduce.MapResult) ([]byte, error) {
	buckets := res.Buckets
	size := 0
	for i := range buckets {
		size += codec.FrameLen(codec.KVColumnsLen(&buckets[i]))
	}
	buf, err := sizedBody(h, size)
	if err != nil {
		return nil, err
	}
	for i := range buckets {
		buf = codec.AppendKVColumnsFrame(buf, frameBucket, &buckets[i])
	}
	return codec.AppendSumFrame(buf), nil
}

// encodeReduceResultBody builds the wire body of a successful reduce attempt.
func encodeReduceResultBody(h resultHeader, res *mapreduce.ReduceResult) ([]byte, error) {
	buf, err := sizedBody(h, codec.FrameLen(codec.KVsLen(res.Output)))
	if err != nil {
		return nil, err
	}
	return codec.AppendSumFrame(codec.AppendKVsFrame(buf, frameOutput, res.Output)), nil
}

// sizedBody starts a task or result body holding the header frame, with
// room for data frames of dataSize bytes and the integrity frame, so the
// body is sized before it is written. Unlike codec.AppendHeaderFrame it
// returns a marshal failure rather than panicking: a task header carries
// the caller-supplied JobSpec.Config.
func sizedBody(h any, dataSize int) ([]byte, error) {
	raw, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("dist: marshal header: %w", err)
	}
	size := codec.FrameLen(len(raw)) + dataSize + codec.FrameLen(8)
	return codec.AppendFrame(make([]byte, 0, size), frameHeader, raw), nil
}

// encodeErrorResultBody builds the wire body of a failed attempt (header
// only, Err set).
func encodeErrorResultBody(h resultHeader) ([]byte, error) {
	buf, err := sizedBody(h, 0)
	if err != nil {
		return nil, err
	}
	return codec.AppendSumFrame(buf), nil
}

// decodeResultBody parses a result message. For a successful map result,
// buckets has one entry per reducer, decoded into columns; for reduce,
// output holds the task's emissions, aliasing body. Both are nil when h.Err
// is set.
func decodeResultBody(body []byte) (h resultHeader, buckets []mapreduce.Bucket, output []mapreduce.Pair, err error) {
	err = codec.DecodeSealed(body, &h, func(kind byte, payload []byte) error {
		if h.Err != "" {
			return codec.WireErrorf("dist: error result carries frame kind %d", kind)
		}
		switch {
		case kind == frameBucket && h.Phase == "map":
			b, _, err := codec.DecodeKVColumns(payload)
			if err != nil {
				return err
			}
			buckets = append(buckets, b)
		case kind == frameOutput && h.Phase == "reduce" && output == nil:
			kvs, _, err := codec.DecodeKVs(payload)
			if err != nil {
				return err
			}
			output = kvs // never nil, even when empty: "missing frame" stays nil
		default:
			return codec.WireErrorf("dist: unexpected frame kind %d in %s result", kind, h.Phase)
		}
		return nil
	})
	if err != nil {
		return resultHeader{}, nil, nil, err
	}
	if h.Err != "" {
		return h, nil, nil, nil
	}
	if h.Phase == "map" && buckets == nil {
		return resultHeader{}, nil, nil, codec.WireErrorf("dist: map result missing bucket frames")
	}
	if h.Phase == "reduce" && output == nil {
		return resultHeader{}, nil, nil, codec.WireErrorf("dist: reduce result missing output frame")
	}
	return h, buckets, output, nil
}

// joinRequest / joinResponse are the JSON bodies of the worker join
// handshake. pollRequest is the body of a task poll.
type joinRequest struct {
	Worker   string   `json:"worker"`
	Capacity int      `json:"capacity"`
	Kinds    []string `json:"kinds,omitempty"` // job kinds the worker can build
}

type joinResponse struct {
	LeaseMs int64 `json:"leaseMs"` // poll at least this often or be declared lost
}

type pollRequest struct {
	Worker string `json:"worker"`
}

// nackRequest reports a dispatch whose payload the worker could not decode
// (corrupted in transit); the coordinator re-queues it immediately.
type nackRequest struct {
	Worker   string `json:"worker"`
	Dispatch uint64 `json:"dispatch"`
	Reason   string `json:"reason,omitempty"`
}
