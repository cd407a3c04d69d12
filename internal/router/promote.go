package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/replica"
)

// PromoteResponse answers POST /v1/promote.
type PromoteResponse struct {
	Shard string `json:"shard"`
	URL   string `json:"url"` // the promoted standby, now serving the shard
	Epoch int64  `json:"epoch"`
	Lag   uint64 `json:"lag"` // ops the standby was missing at the decision
}

// promoteError carries the HTTP shape of a refused promotion.
type promoteError struct {
	status int
	code   string
	msg    string
}

func (e *promoteError) Error() string { return e.code + ": " + e.msg }

// Promote fails the named shard over to its warm standby as one
// epoch-numbered topology transaction:
//
//  1. Read the standby's replication status and refuse unless its applied
//     position is within PromoteLagBound of the primary's last probed log
//     head (a stale standby must not silently rewrite window history).
//  2. Build the successor topology — same shard name, standby URL swapped
//     in, epoch advanced — and push it to the promoted standby first (the
//     push IS its promotion signal), then to the survivors.
//  3. Install the successor locally unless another transaction won the
//     epoch race, and clear the shard's failure count so traffic flows at
//     once.
//
// In-flight requests need no explicit replay step: callShard re-resolves
// the shard's URL on every retry attempt, so a request stuck retrying the
// dead primary lands on the promoted standby with its original idempotency
// key — and the standby's replicated dedupe cache answers retried work
// exactly once.
func (rt *Router) Promote(ctx context.Context, name string) (*PromoteResponse, error) {
	rt.promoteMu.Lock()
	if rt.promoting[name] {
		rt.promoteMu.Unlock()
		return nil, &promoteError{http.StatusConflict, "promotion_in_progress",
			fmt.Sprintf("a promotion of shard %q is already running", name)}
	}
	rt.promoting[name] = true
	rt.promoteMu.Unlock()
	defer func() {
		rt.promoteMu.Lock()
		delete(rt.promoting, name)
		rt.promoteMu.Unlock()
	}()

	topo := rt.topology()
	if topo.ShardURL(name) == "" {
		return nil, &promoteError{http.StatusNotFound, "unknown_shard",
			fmt.Sprintf("shard %q is not in epoch %d", name, topo.Epoch)}
	}
	standby := topo.Standby(name)
	if standby == "" {
		return nil, &promoteError{http.StatusConflict, "no_standby",
			fmt.Sprintf("shard %q has no standby in epoch %d (already promoted?)", name, topo.Epoch)}
	}
	span := rt.trace.Start("promote").SetAttr(obs.Str("shard", name))
	defer span.End()

	st, err := rt.replicaStatus(ctx, standby)
	if err != nil {
		return nil, &promoteError{http.StatusBadGateway, "standby_unreachable",
			fmt.Sprintf("standby %s of shard %s: %v", standby, name, err)}
	}
	if st.Role != "standby" {
		return nil, &promoteError{http.StatusConflict, "not_standby",
			fmt.Sprintf("%s reports role %q, refusing to promote it for shard %s", standby, st.Role, name)}
	}
	lastHead := rt.lastReplicaHead(name)
	var lag uint64
	if lastHead > st.Applied {
		lag = lastHead - st.Applied
	}
	// A standby already flipped by a half-completed promotion push is past
	// the lag check: re-driving the topology transaction is the only repair.
	if !st.Promoted {
		withinBound := lag <= rt.cfg.PromoteLagBound
		if lastHead == 0 && !st.Synced {
			// No probe ever saw the primary's head; the standby's own
			// catch-up claim is the only lag signal left.
			withinBound = false
		}
		if !withinBound {
			rt.met.replicaLost.Add(int64(lag))
			return nil, &promoteError{http.StatusConflict, "standby_lag",
				fmt.Sprintf("standby of %s applied %d of %d known ops (lag %d > bound %d); promotion would lose them",
					name, st.Applied, lastHead, lag, rt.cfg.PromoteLagBound)}
		}
	}

	next, err := topo.Promote(name)
	if err != nil {
		return nil, &promoteError{http.StatusConflict, "promote_failed", err.Error()}
	}
	// Push the successor epoch to the promoted standby first — the push is
	// what flips it from replica replay to serving — then to the survivors,
	// so every shard stands on the same epoch.
	ordered := make([]ShardInfo, 0, len(next.Shards))
	for _, s := range next.Shards {
		if s.Name == name {
			ordered = append(ordered, s)
		}
	}
	for _, s := range next.Shards {
		if s.Name != name {
			ordered = append(ordered, s)
		}
	}
	if err := rt.pushTopology(ctx, next, ordered); err != nil {
		return nil, &promoteError{http.StatusBadGateway, "topology_push_failed", err.Error()}
	}

	rt.topoMu.Lock()
	if rt.topo.Epoch >= next.Epoch {
		rt.topoMu.Unlock()
		return nil, &promoteError{http.StatusConflict, "stale_epoch",
			fmt.Sprintf("epoch moved to %d while promoting %s to %d", rt.topo.Epoch, name, next.Epoch)}
	}
	rt.topo = next
	rt.topoMu.Unlock()

	rt.met.promotes.Inc()
	if lag > 0 {
		// Promoted within the bound but not at parity: the gap is real,
		// permanent loss — make it countable.
		rt.met.replicaLost.Add(int64(lag))
	}
	rt.healthMu.Lock()
	delete(rt.failures, name)
	delete(rt.replicaHeads, name)
	rt.healthMu.Unlock()
	span.SetAttr(obs.Int("epoch", next.Epoch), obs.Int("lag", int64(lag)))
	return &PromoteResponse{Shard: name, URL: next.ShardURL(name), Epoch: next.Epoch, Lag: lag}, nil
}

// lastReplicaHead returns the primary's last probed op-log head (0 if no
// probe ever reported one).
func (rt *Router) lastReplicaHead(name string) uint64 {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	return rt.replicaHeads[name]
}

// replicaStatus fetches a standby's replication status.
func (rt *Router) replicaStatus(ctx context.Context, base string) (*replica.StatusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+replica.PathStatus, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s%s: status %d", base, replica.PathStatus, resp.StatusCode)
	}
	var st replica.StatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("bad status from %s: %v", base, err)
	}
	return &st, nil
}

// handlePromote serves POST /v1/promote?shard=NAME — the manual form of
// the automatic failover of a down shard.
func (rt *Router) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("shard")
	if name == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, "bad_request", "missing ?shard=NAME")
		return
	}
	resp, err := rt.Promote(r.Context(), name)
	if err != nil {
		var pe *promoteError
		if errors.As(err, &pe) {
			httpapi.WriteError(w, r, pe.status, pe.code, pe.msg)
			return
		}
		httpapi.WriteError(w, r, http.StatusBadGateway, "promote_failed", err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}
