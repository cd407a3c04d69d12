package dist

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"dod/internal/codec"
)

// The coordinator journal is the checkpoint/resume backbone: every accepted
// task result is appended to an append-only log before the waiting executor
// call sees it (write-ahead order). A restarted coordinator pointed at the
// same journal replays settled results at enqueue time instead of
// re-dispatching — the driver re-runs its deterministic plan, every task
// that already completed is answered from disk byte-for-byte, and only
// genuinely unfinished work reaches the workers. Results are keyed by
// (spec hash, phase, task id), not by job sequence numbers, so a new
// process with fresh job IDs still hits.
//
// On-disk format: each record is a codec frame (kind journalRecResult,
// payload = [meta JSON frame][raw result-body frame]) sealed by a FrameSum
// integrity frame covering the record. A crash mid-append leaves a torn
// tail; open() keeps the valid prefix, truncates the rest, and appends
// cleanly after it. Every append is fsynced: the journal's whole point is
// surviving the process dying at the worst moment.

// journalRecResult is the record kind for one accepted task result.
const journalRecResult byte = 1

// journalKey addresses one settled task result across coordinator restarts.
type journalKey struct {
	spec  uint64 // specKey of the owning job spec
	phase string
	task  int
}

type journalMeta struct {
	Spec  uint64 `json:"spec"`
	Phase string `json:"phase"`
	Task  int    `json:"task"`
}

// specKey hashes a job spec (kind + config) into the journal's job
// identity. Two coordinator processes running the same spec agree on it.
func specKey(spec JobSpec) uint64 {
	h := fnv.New64a()
	io.WriteString(h, spec.Kind) //nolint:errcheck // fnv never errors
	h.Write([]byte{0})           //nolint:errcheck
	h.Write(spec.Config)         //nolint:errcheck
	return h.Sum64()
}

// journal is the coordinator's durable result log. Safe for concurrent use.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	results map[journalKey][]byte // raw (sealed) result bodies
}

// openJournal opens or creates the journal at path, loads every intact
// record, and truncates any torn tail so subsequent appends are clean,
// logging how many bytes it dropped. Records sealed with another integrity
// sum (a journal written before the seal became CRC-32/CRC-32C) fail their
// check and are dropped the same way, so their tasks re-run. It returns
// the journal and how many records were recovered.
func openJournal(path string, logf func(format string, args ...any)) (*journal, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: opening journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("dist: reading journal: %w", err)
	}
	j := &journal{f: f, results: make(map[journalKey][]byte)}
	valid := 0
	for valid < len(data) {
		key, body, n, err := decodeJournalRecord(data[valid:])
		if err != nil {
			break // torn or corrupt tail: keep the valid prefix
		}
		j.results[key] = body
		valid += n
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("dist: truncating torn journal tail: %w", err)
		}
		logf("dist: journal %s: dropped %d bytes after %d intact bytes (a torn or unreadable tail; any task it held re-runs)",
			path, len(data)-valid, valid)
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("dist: seeking journal: %w", err)
	}
	return j, len(j.results), nil
}

// decodeJournalRecord decodes one record from the front of buf: a data
// frame followed by a FrameSum frame covering it.
func decodeJournalRecord(buf []byte) (journalKey, []byte, int, error) {
	kind, payload, n, err := codec.DecodeFrame(buf)
	if err != nil {
		return journalKey{}, nil, 0, err
	}
	if kind != journalRecResult {
		return journalKey{}, nil, 0, codec.WireErrorf("dist: journal record kind %d", kind)
	}
	sumKind, _, m, err := codec.DecodeFrame(buf[n:])
	if err != nil {
		return journalKey{}, nil, 0, err
	}
	if sumKind != codec.FrameSum {
		return journalKey{}, nil, 0, codec.WireErrorf("dist: journal record missing integrity frame")
	}
	// The sum frame must cover exactly the data frame; StripSumFrame
	// performs the checksum and shape checks on the record slice.
	if _, err := codec.StripSumFrame(buf[:n+m]); err != nil {
		return journalKey{}, nil, 0, err
	}

	// payload = [meta JSON frame][raw result-body frame]
	metaKind, metaRaw, mn, err := codec.DecodeFrame(payload)
	if err != nil || metaKind != 1 {
		return journalKey{}, nil, 0, codec.WireErrorf("dist: journal meta frame: %v", err)
	}
	bodyKind, body, _, err := codec.DecodeFrame(payload[mn:])
	if err != nil || bodyKind != 2 {
		return journalKey{}, nil, 0, codec.WireErrorf("dist: journal body frame: %v", err)
	}
	var meta journalMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return journalKey{}, nil, 0, codec.WireErrorf("dist: journal meta: %v", err)
	}
	return journalKey{spec: meta.Spec, phase: meta.Phase, task: meta.Task},
		append([]byte(nil), body...), n + m, nil
}

// lookup returns the journaled raw result body for key, if any.
func (j *journal) lookup(key journalKey) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	body, ok := j.results[key]
	return body, ok
}

// append durably records one accepted result body (already sealed by the
// wire layer) before the coordinator delivers it. fsyncs.
func (j *journal) append(key journalKey, body []byte) error {
	if j == nil {
		return nil
	}
	meta, err := json.Marshal(journalMeta{Spec: key.spec, Phase: key.phase, Task: key.task})
	if err != nil {
		return err
	}
	payload := codec.AppendFrame(nil, 1, meta)
	payload = codec.AppendFrame(payload, 2, body)
	rec := codec.AppendSumFrame(codec.AppendFrame(nil, journalRecResult, payload))

	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.results[key]; ok {
		return nil // already journaled (another dispatch's result accepted first)
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("dist: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal sync: %w", err)
	}
	j.results[key] = append([]byte(nil), body...)
	return nil
}

func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
