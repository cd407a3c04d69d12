package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dod/internal/httpapi"
	"dod/internal/replica"
	"dod/internal/router"
	"dod/internal/stream"
)

// maxReplicaBodyBytes caps one replication request body. Snapshots carry a
// full window slice, so the cap is wider than the ordinary wire limit.
const maxReplicaBodyBytes = 64 << 20

// handleReplicaApply ingests one op shipment from the primary's shipper.
// Ops apply strictly in sequence under the standby cursor lock: already
// applied sequences are skipped (shipper retries after a lost ack), a gap —
// or a replay failure, which means divergence — asks for a snapshot
// bootstrap instead of guessing.
func (s *ShardServer) handleReplicaApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.stby == nil {
		httpapi.WriteError(w, r, http.StatusConflict, "not_standby",
			fmt.Sprintf("shard %s does not run as a standby", s.cfg.Name))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxReplicaBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpapi.WriteBatchError(w, r, err)
		return
	}
	hdr, ops, err := replica.DecodeApply(body)
	if err != nil {
		s.met.wireErrors.Inc()
		httpapi.WriteError(w, r, http.StatusBadRequest, "bad_wire", err.Error())
		return
	}
	if hdr.From != s.cfg.Name {
		httpapi.WriteError(w, r, http.StatusConflict, "wrong_primary",
			fmt.Sprintf("shipment from %q but this standby replicates %q", hdr.From, s.cfg.Name))
		return
	}
	s.stby.mu.Lock()
	defer s.stby.mu.Unlock()
	if s.stby.promoted {
		httpapi.WriteError(w, r, http.StatusConflict, "promoted",
			fmt.Sprintf("shard %s has been promoted to primary", s.cfg.Name))
		return
	}
	need := false
	for _, op := range ops {
		if op.Seq <= s.stby.applied {
			continue // duplicate shipment after a lost ack
		}
		if op.Seq != s.stby.applied+1 {
			need = true // gap: shipped past our cursor (log trimmed under us)
			break
		}
		if err := s.applyReplicaOp(op); err != nil {
			need = true // replay failure means divergence; resync from scratch
			break
		}
		s.stby.applied = op.Seq
		s.met.replicaOps.Inc()
	}
	s.stby.synced = !need && s.stby.applied >= hdr.Head
	httpapi.WriteJSON(w, http.StatusOK, replica.ApplyResponse{
		Applied: s.stby.applied, Synced: s.stby.synced, NeedSnapshot: need,
	})
}

// handleReplicaSnapshot bootstraps this standby from a full window capture:
// drop whatever partial state exists, adopt the snapshot's topology and
// entries, and move the replay cursor to the snapshot's log position.
func (s *ShardServer) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.stby == nil {
		httpapi.WriteError(w, r, http.StatusConflict, "not_standby",
			fmt.Sprintf("shard %s does not run as a standby", s.cfg.Name))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxReplicaBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpapi.WriteBatchError(w, r, err)
		return
	}
	snap, err := replica.DecodeSnapshot(body)
	if err != nil {
		s.met.wireErrors.Inc()
		httpapi.WriteError(w, r, http.StatusBadRequest, "bad_wire", err.Error())
		return
	}
	if snap.From != s.cfg.Name {
		httpapi.WriteError(w, r, http.StatusConflict, "wrong_primary",
			fmt.Sprintf("snapshot from %q but this standby replicates %q", snap.From, s.cfg.Name))
		return
	}
	s.stby.mu.Lock()
	defer s.stby.mu.Unlock()
	if s.stby.promoted {
		httpapi.WriteError(w, r, http.StatusConflict, "promoted",
			fmt.Sprintf("shard %s has been promoted to primary", s.cfg.Name))
		return
	}
	if len(snap.Topology) > 0 {
		if err := s.installReplicatedTopology(snap.Topology); err != nil {
			httpapi.WriteError(w, r, http.StatusBadRequest, "bad_topology", err.Error())
			return
		}
	}
	s.sw.Reset()
	if err := s.sw.Import(snap.Entries); err != nil {
		httpapi.WriteError(w, r, http.StatusInternalServerError, "apply_failed", err.Error())
		return
	}
	s.stby.applied = snap.Seq
	s.stby.synced = true
	httpapi.WriteJSON(w, http.StatusOK, replica.SnapshotResponse{Applied: s.stby.applied})
}

// handleReplicaStatus reports this server's replication position for either
// role — the router's lag probe before promotion reads the standby side.
func (s *ShardServer) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	var out replica.StatusResponse
	switch {
	case s.stby != nil:
		s.stby.mu.Lock()
		out = replica.StatusResponse{
			Role: "standby", Applied: s.stby.applied,
			Synced: s.stby.synced, Promoted: s.stby.promoted,
		}
		s.stby.mu.Unlock()
	case s.replog != nil:
		head, acked := s.replog.Head(), s.replog.Acked()
		out = replica.StatusResponse{
			Role: "primary", Head: head, Acked: acked,
			Applied: head, Synced: acked == head,
		}
	default:
		out = replica.StatusResponse{Role: "none"}
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// handleShardDigest answers the anti-entropy probe: a deterministic hash of
// the window contents anchored to a log position (primary: head; standby:
// applied cursor), so a primary/standby pair can be compared for
// bit-identity at matching positions.
func (s *ShardServer) handleShardDigest(w http.ResponseWriter, r *http.Request) {
	var digest uint64
	var points int
	var seq uint64
	switch {
	case s.stby != nil:
		// Hold the cursor lock across the hash so the digest and the applied
		// position describe the same instant (applies take the same lock).
		s.stby.mu.Lock()
		digest, points = s.sw.Digest()
		seq = s.stby.applied
		s.stby.mu.Unlock()
	case s.replog != nil:
		// Retry until no op lands between the head read and the hash.
		for i := 0; i < 64; i++ {
			seq = s.replog.Head()
			digest, points = s.sw.Digest()
			if s.replog.Head() == seq {
				break
			}
		}
	default:
		digest, points = s.sw.Digest()
	}
	httpapi.WriteJSON(w, http.StatusOK, replica.DigestResponse{
		Shard: s.cfg.Name, Digest: fmt.Sprintf("%016x", digest), Seq: seq, Points: points,
	})
}

// applyReplicaOp replays one primary mutation against the standby window.
// Callers hold s.stby.mu, so replay order equals log order. Any error means
// the standby can no longer mirror the primary bit for bit — the caller
// falls back to a snapshot bootstrap.
func (s *ShardServer) applyReplicaOp(op *replica.Op) error {
	switch op.Kind {
	case replica.KindTopology:
		return s.installReplicatedTopology(op.Raw)
	case replica.KindDedupe:
		s.dedupe.seed(op.ReqID, op.Status, op.Raw)
		return nil
	}
	topo := s.topology()
	if topo == nil {
		return fmt.Errorf("replica: window op %d before any topology", op.Kind)
	}
	switch op.Kind {
	case replica.KindWindow:
		// The segment is the log: the op the primary applied replays, as a
		// one-op segment, through the entry it was applied by and at the
		// instant it was applied at.
		segment := append([]stream.ShardOp(nil), op.ShardOp)
		_, opErrs := s.sw.ApplyOps(segment, time.Unix(0, op.ArrivedNs), s.owns(topo))
		return opErrs[0]
	case replica.KindImport:
		return s.sw.Import(op.Entries)
	}
	return fmt.Errorf("replica: unknown op kind %d", op.Kind)
}

// installReplicatedTopology installs a topology that arrived through the
// replication channel (op log or snapshot) rather than a router push.
func (s *ShardServer) installReplicatedTopology(raw []byte) error {
	var topo router.Topology
	if err := json.Unmarshal(raw, &topo); err != nil {
		return fmt.Errorf("replica: bad topology payload: %v", err)
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.topo != nil && topo.Epoch < s.topo.Epoch {
		return nil // already past this epoch
	}
	s.topo = &topo
	return nil
}

// replicaSnapshot captures the primary's full window consistent with a log
// position — the shipper calls it when the standby needs a bootstrap. The
// head is re-read after the export: if any op landed in between, the
// capture does not correspond to a single log position and is retried.
func (s *ShardServer) replicaSnapshot() (*replica.Snapshot, error) {
	for i := 0; i < 64; i++ {
		seq := s.replog.Head()
		var topoRaw []byte
		if topo := s.topology(); topo != nil {
			raw, err := json.Marshal(topo)
			if err != nil {
				return nil, fmt.Errorf("replica: marshal topology: %v", err)
			}
			topoRaw = raw
		}
		entries := s.sw.Export()
		if s.replog.Head() == seq {
			return &replica.Snapshot{Seq: seq, Topology: topoRaw, Entries: entries}, nil
		}
	}
	return nil, fmt.Errorf("replica: window too busy to capture a consistent snapshot")
}
