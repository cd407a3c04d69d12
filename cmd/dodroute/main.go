// Command dodroute runs the sharded serving tier's router: a stateless
// NDJSON front for N dodserve shards that together hold one cell-partitioned
// sliding window. Clients speak the exact single-process dodserve API
// (/v1/ingest, /v1/score) and receive byte-identical verdict streams; the
// router owns global ordering (sequence numbers, capacity/TTL eviction,
// duplicate IDs) and delegates point storage and neighbor counting to the
// shards over the codec-framed wire protocol.
//
// Usage:
//
//	dodroute -r 5 -k 4 -dim 2 -window 100000 \
//	    -shards s0=http://h0:8335,s1=http://h1:8335,s2=http://h2:8335 \
//	    [-addr :8334] [-block 16] [-vnodes 64] \
//	    [-tenant-rps 0] [-tenant-burst 0] [-tenant-quota 0]
//
// Shards are dodserve processes started with -shard -shard-name NAME. On
// startup the router pushes the ownership topology to every shard and
// begins health probing. Additional endpoints:
//
//	POST /v1/drain?shard=NAME  gracefully remove a shard: snapshot its
//	                           window slice, re-ring ownership, replay the
//	                           entries to their new owners. ?force=1
//	                           proceeds even if the shard is unreachable
//	                           (failover; its entries are lost, and the
//	                           response reports lost_entries/lost_cells).
//	POST /v1/promote?shard=NAME  fail the shard over to its warm standby
//	                           (see -standbys); refused with 409 if the
//	                           standby lags beyond -promote-lag.
//	GET  /v1/topology          the current ownership view.
//	GET  /v1/snapshot          the aggregated global window.
//	GET  /healthz /readyz /statsz /metrics as usual.
//
// -standbys attaches warm standbys (dodserve -shard -standby processes,
// started with the same shard names) to shards by name. When a primary's
// last 3 calls and /healthz probes have all failed and it has a standby,
// the router promotes the standby automatically — the same lag-bounded
// transaction as /v1/promote.
//
// -pprof additionally mounts the net/http/pprof profiling handlers under
// /debug/pprof/, same as dodserve's flag — profile the router and a shard
// side by side to see which tier owns a regression.
//
// With -addr :0 the actual bound address is printed on stdout as
// "dodroute: listening on HOST:PORT".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dod/internal/httpapi"
	"dod/internal/retry"
	"dod/internal/router"
)

func main() {
	var (
		addr          = flag.String("addr", ":8334", "listen address (use :0 for an ephemeral port; the bound address is printed on stdout)")
		r             = flag.Float64("r", 0, "distance threshold (required)")
		k             = flag.Int("k", 0, "neighbor-count threshold (required)")
		dim           = flag.Int("dim", 2, "point dimensionality")
		window        = flag.Int("window", 0, "global window capacity in points (0 = unbounded; then -ttl is required)")
		ttl           = flag.Duration("ttl", 0, "global window age horizon (0 = none; then -window is required)")
		shards        = flag.String("shards", "", "comma-separated shard list, name=url pairs or bare URLs (required)")
		block         = flag.Int("block", 0, "ownership block side in cells (0 = default)")
		vnodes        = flag.Int("vnodes", 0, "virtual nodes per shard on the ring (0 = default)")
		maxBatch      = flag.Int("max-batch", 0, "max NDJSON lines per request; beyond it the whole request is rejected with 400 batch_too_large (0 = default)")
		maxBody       = flag.Int64("max-body-bytes", 0, "max request body bytes before 413 (0 = default 64 MiB)")
		tenantRPS     = flag.Float64("tenant-rps", 0, "per-tenant request rate limit, tenants named by the "+router.HeaderTenant+" request header (0 = unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = 1)")
		tenantQuota   = flag.Int64("tenant-quota", 0, "per-tenant lifetime ingested-line quota (0 = unlimited)")
		probeInterval = flag.Duration("probe-interval", time.Second, "shard health-probe period")
		retries       = flag.Int("shard-retries", 0, "max attempts per shard call (0 = default 8)")
		standbys      = flag.String("standbys", "", "comma-separated name=url warm-standby list, attached to -shards entries by name")
		promoteLag    = flag.Uint64("promote-lag", 0, "max unreplicated ops a standby may be missing and still be promoted (0 = must be fully caught up)")
		pprofOn       = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	)
	flag.Parse()

	infos, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dodroute:", err)
		os.Exit(2)
	}
	if err := attachStandbys(infos, *standbys); err != nil {
		fmt.Fprintln(os.Stderr, "dodroute:", err)
		os.Exit(2)
	}
	cfg := router.Config{
		R: *r, K: *k, Dim: *dim,
		Capacity: *window, TTL: *ttl,
		Shards: infos, Block: *block, Vnodes: *vnodes,
		FrontConfig: httpapi.FrontConfig{
			MaxBatch: *maxBatch, MaxBodyBytes: *maxBody,
			TenantRPS: *tenantRPS, TenantBurst: *tenantBurst, TenantQuota: *tenantQuota,
			EnablePprof: *pprofOn,
		},
		ProbeInterval:   *probeInterval,
		RetryAttempts:   *retries,
		PromoteLagBound: *promoteLag,
		Retry:           retry.Policy{Base: 50 * time.Millisecond},
	}
	if err := run(*addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dodroute:", err)
		os.Exit(1)
	}
}

// parseShards accepts "name=url,name=url" or bare URLs (auto-named s0..sN).
func parseShards(s string) ([]router.ShardInfo, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-shards is required (name=url,... or url,...)")
	}
	var infos []router.ShardInfo
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			infos = append(infos, router.ShardInfo{Name: name, URL: url})
			continue
		}
		infos = append(infos, router.ShardInfo{Name: fmt.Sprintf("s%d", i), URL: part})
	}
	return infos, nil
}

// attachStandbys wires "name=url" warm-standby entries onto the matching
// shards. A standby for an unknown shard is a configuration error.
func attachStandbys(infos []router.ShardInfo, s string) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("-standbys entries must be name=url, got %q", part)
		}
		found := false
		for i := range infos {
			if infos[i].Name == name {
				infos[i].Standby = url
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-standbys names shard %q, which is not in -shards", name)
		}
	}
	return nil
}

func run(addr string, cfg router.Config) error {
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	// Push the initial topology until every shard has it (shards may still
	// be starting), then open for traffic.
	start := func(ctx context.Context) error {
		for {
			err := rt.Start(ctx)
			if err == nil {
				break
			}
			if ctx.Err() != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "dodroute: topology push failed, retrying:", err)
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		fmt.Fprintf(os.Stderr, "dodroute: serving %d shards (r=%g k=%d dim=%d window=%d ttl=%s)\n",
			len(cfg.Shards), cfg.R, cfg.K, cfg.Dim, cfg.Capacity, cfg.TTL)
		return nil
	}
	return httpapi.ListenAndServe("dodroute", addr, rt.Handler(), rt.SetDraining, start)
}
