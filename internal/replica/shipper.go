package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dod/internal/obs"
)

// DefaultShipInterval is the shipper's poll period — the upper bound on
// how long an op waits before shipping when the notify nudge is missed.
const DefaultShipInterval = 20 * time.Millisecond

// DefaultMaxOpsPerShipment bounds one apply body.
const DefaultMaxOpsPerShipment = 256

// ShipperConfig parameterizes a Shipper.
type ShipperConfig struct {
	// From is the primary shard's name (travels in every apply header).
	From string
	// Standby is the standby's base URL.
	Standby string
	// Log is the op log to tail.
	Log *Log
	// Client issues the replication HTTP calls — its transport is the
	// fault-injection seam for the replication hop.
	Client *http.Client
	// Interval is the ship poll period; default DefaultShipInterval.
	Interval time.Duration
	// MaxOps bounds ops per apply body; default DefaultMaxOpsPerShipment.
	MaxOps int
	// Snapshot captures the primary's full window state, consistent with
	// a log position — served when the standby needs a bootstrap.
	Snapshot func() (*Snapshot, error)
	// Obs is the metrics registry (may be nil).
	Obs *obs.Registry
}

// Shipper asynchronously tails a Log into a standby: batched op shipments
// on every append (nudged, with a ticker as backstop), automatic snapshot
// bootstrap when the standby is fresh or has fallen behind a trim, and
// acked-position bookkeeping so the log stays trimmed to the lag. Shipping
// is off the mutation path entirely — a dead or slow standby costs the
// primary nothing but log memory, which is what "warm standby" means: the
// window between head and acked is exactly the state a failover at this
// instant would lose.
type Shipper struct {
	cfg ShipperConfig

	shipped    *obs.Counter
	snapshots  *obs.Counter
	shipErrors *obs.Counter

	mu           sync.Mutex
	remoteSynced bool
	halted       bool // standby reported itself promoted: this log is history

	stop chan struct{}
	done chan struct{}
}

// NewShipper builds a shipper; call Start to begin tailing.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.Standby == "" || cfg.Log == nil || cfg.Snapshot == nil {
		return nil, fmt.Errorf("replica: shipper needs a standby URL, a log and a snapshot source")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultShipInterval
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultMaxOpsPerShipment
	}
	s := &Shipper{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	if reg := cfg.Obs; reg != nil {
		s.shipped = reg.Counter("dod_replica_ops_total", "replication log ops", obs.L("dir", "shipped"))
		s.snapshots = reg.Counter("dod_replica_snapshots_total", "bootstrap snapshots shipped to the standby")
		s.shipErrors = reg.Counter("dod_replica_ship_errors_total", "failed replication shipments (retried next tick)")
	}
	return s, nil
}

// Start launches the ship loop.
func (s *Shipper) Start() { go s.loop() }

// Close stops the ship loop and waits for it to exit.
func (s *Shipper) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

func (s *Shipper) loop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.cfg.Log.Notify():
		case <-t.C:
		}
		// Drain as long as progress is being made, so a burst of appends
		// ships in consecutive bounded bodies rather than one per tick.
		for s.tick() {
			select {
			case <-s.stop:
				return
			default:
			}
		}
	}
}

// tick performs one shipment exchange; it reports whether another round
// should run immediately (progress was made and backlog remains).
func (s *Shipper) tick() bool {
	s.mu.Lock()
	halted, synced := s.halted, s.remoteSynced
	s.mu.Unlock()
	if halted {
		return false
	}
	acked := s.cfg.Log.Acked()
	ops, head, ok := s.cfg.Log.Window(acked+1, s.cfg.MaxOps)
	if !ok {
		// The window below acked+1 is gone — only reachable if acks
		// regressed externally; resync from a snapshot.
		s.sendSnapshot()
		return false
	}
	if len(ops) == 0 && synced {
		return false // nothing new and the standby is caught up
	}
	body := EncodeApply(ApplyHeader{From: s.cfg.From, Count: len(ops), Head: head}, ops)
	var resp ApplyResponse
	code, err := s.post(PathApply, body, &resp)
	if err != nil {
		s.countError()
		return false
	}
	if code == "promoted" {
		s.halt()
		return false
	}
	if code != "" || resp.Error != "" {
		s.countError()
		return false
	}
	if resp.NeedSnapshot {
		s.sendSnapshot()
		return true
	}
	if resp.Applied > acked {
		if s.shipped != nil {
			s.shipped.Add(int64(resp.Applied - acked))
		}
		s.cfg.Log.Ack(resp.Applied)
	}
	s.mu.Lock()
	s.remoteSynced = resp.Synced
	s.mu.Unlock()
	return s.cfg.Log.Head() > s.cfg.Log.Acked()
}

// sendSnapshot bootstraps the standby from a full window capture.
func (s *Shipper) sendSnapshot() {
	snap, err := s.cfg.Snapshot()
	if err != nil {
		s.countError()
		return
	}
	snap.From = s.cfg.From
	var resp SnapshotResponse
	code, err := s.post(PathSnapshot, EncodeSnapshot(snap), &resp)
	if err != nil {
		s.countError()
		return
	}
	if code == "promoted" {
		s.halt()
		return
	}
	if code != "" || resp.Error != "" {
		s.countError()
		return
	}
	if s.snapshots != nil {
		s.snapshots.Inc()
	}
	s.cfg.Log.Ack(resp.Applied)
	s.mu.Lock()
	s.remoteSynced = s.cfg.Log.Head() == resp.Applied
	s.mu.Unlock()
}

// post sends one replication body. A non-2xx status returns the structured
// error code from the body (e.g. "promoted") with a nil error; transport
// failures return err.
func (s *Shipper) post(path string, body []byte, out any) (errCode string, err error) {
	req, err := http.NewRequest(http.MethodPost, s.cfg.Standby+path, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return "", err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &eb)
		if eb.Error == "" {
			eb.Error = fmt.Sprintf("status_%d", resp.StatusCode)
		}
		return eb.Error, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return "", fmt.Errorf("replica: bad %s response: %w", path, err)
	}
	return "", nil
}

func (s *Shipper) halt() {
	s.mu.Lock()
	s.halted = true
	s.mu.Unlock()
}

func (s *Shipper) countError() {
	if s.shipErrors != nil {
		s.shipErrors.Inc()
	}
}
