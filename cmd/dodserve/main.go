// Command dodserve runs the online outlier-detection service: a sliding
// window of streamed points with always-current distance-threshold
// verdicts, served over HTTP as NDJSON.
//
// Usage:
//
//	dodserve -r 5 -k 4 -dim 2 [-window 100000] [-ttl 10m] \
//	    [-addr :8334] [-shards 16] [-max-batch 100000]
//
// At least one of -window (count capacity) and -ttl (age horizon) must be
// set. Endpoints:
//
//	POST /v1/ingest   NDJSON {"id":7,"coords":[1.5,2.0]} per line; each
//	                  point joins the window and is answered with
//	                  {"id","seq","neighbors","outlier","evicted"}.
//	POST /v1/score    same body; points are scored against the current
//	                  window without being ingested.
//	GET  /healthz     liveness.
//	GET  /readyz      readiness; 503 while draining before shutdown.
//	GET  /statsz      counters and p50/p99 latency histograms (JSON).
//	GET  /metrics     Prometheus text exposition of every instrument:
//	                  request/line counters, latency histograms, window
//	                  occupancy, index ring-expansion depths.
//
// -pprof additionally mounts the net/http/pprof profiling handlers under
// /debug/pprof/. SIGINT/SIGTERM drain in-flight requests before exiting.
//
// With -shard, the process instead runs as one cell-partitioned shard of a
// sharded serving tier behind a dodroute router: it serves the shard wire
// protocol (/v1/shard/*, /v1/support) and holds only the window slice whose
// grid cells it owns under the router-pushed topology. -shard-name sets its
// cluster-unique name; -window and -ttl are ignored (the router owns the
// global eviction discipline). -dedupe sizes the idempotency replay cache.
//
// A shard can be paired with a warm standby for failover:
//
//	-replica URL   makes this shard a replicating primary: every window
//	               mutation is appended to a sequence-numbered op log and
//	               shipped asynchronously to the standby at URL.
//	-standby       runs this process as the warm standby itself: it serves
//	               the /v1/replica endpoints, answers 503 on /readyz until
//	               it has bootstrapped and caught up, and treats a router
//	               topology push as its promotion to primary. Start it with
//	               the SAME -shard-name as its primary — a standby IS its
//	               primary, one promotion away.
//
// With -addr :0 the actual bound address is printed on stdout as
// "dodserve: listening on HOST:PORT", so harnesses can discover the port.
package main

import (
	"flag"
	"fmt"
	"os"

	"dod/internal/httpapi"
	"dod/internal/serve"
	"dod/internal/stream"
)

func main() {
	var (
		addr     = flag.String("addr", ":8334", "listen address (use :0 for an ephemeral port; the bound address is printed on stdout)")
		shard    = flag.Bool("shard", false, "run as a cell-partitioned shard behind a dodroute router")
		name     = flag.String("shard-name", "", "cluster-unique shard name (required with -shard)")
		r        = flag.Float64("r", 0, "distance threshold (required)")
		k        = flag.Int("k", 0, "neighbor-count threshold (required)")
		dim      = flag.Int("dim", 2, "point dimensionality")
		window   = flag.Int("window", 0, "window capacity in points (0 = unbounded; then -ttl is required)")
		ttl      = flag.Duration("ttl", 0, "window age horizon (0 = none; then -window is required)")
		shards   = flag.Int("shards", 0, "index shard count (0 = default)")
		maxBatch = flag.Int("max-batch", 0, "max NDJSON lines per request; beyond it the whole request is rejected with 400 batch_too_large (0 = default)")
		inflight = flag.Int("max-inflight", 0, "max concurrently admitted batch requests before 429 shedding (0 = 2x GOMAXPROCS)")
		maxBody  = flag.Int64("max-body-bytes", 0, "max request body bytes before 413 (0 = default 64 MiB)")
		dedupe   = flag.Int("dedupe", 0, "idempotency replay cache capacity in entries (0 = default 4096; shard mode only)")
		repl     = flag.String("replica", "", "warm standby base URL to replicate this shard's window to (shard mode only)")
		standby  = flag.Bool("standby", false, "run as a warm standby: replay a primary's op log, refuse readiness until caught up (shard mode only)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	)
	flag.Parse()

	if *shard {
		if *name == "" {
			fmt.Fprintln(os.Stderr, "dodserve: -shard requires -shard-name")
			os.Exit(2)
		}
		scfg := serve.ShardServerConfig{
			Name: *name, R: *r, K: *k, Dim: *dim,
			IndexShards:    *shards,
			MaxBodyBytes:   *maxBody,
			DedupeCapacity: *dedupe,
			Replica:        *repl,
			Standby:        *standby,
		}
		if err := runShard(*addr, scfg); err != nil {
			fmt.Fprintln(os.Stderr, "dodserve:", err)
			os.Exit(1)
		}
		return
	}
	cfg := serve.Config{
		Stream: stream.Config{
			R:        *r,
			K:        *k,
			Dim:      *dim,
			Capacity: *window,
			TTL:      *ttl,
			Shards:   *shards,
		},
		FrontConfig: httpapi.FrontConfig{
			MaxBatch:     *maxBatch,
			MaxInflight:  *inflight,
			MaxBodyBytes: *maxBody,
			EnablePprof:  *pprofOn,
		},
	}
	if err := run(*addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dodserve:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "dodserve: starting (r=%g k=%d dim=%d window=%d ttl=%s)\n",
		cfg.Stream.R, cfg.Stream.K, cfg.Stream.Dim, cfg.Stream.Capacity, cfg.Stream.TTL)
	return httpapi.ListenAndServe("dodserve", addr, srv.Handler(), srv.SetDraining, nil)
}

func runShard(addr string, cfg serve.ShardServerConfig) error {
	srv, err := serve.NewShard(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	role := "shard"
	switch {
	case cfg.Standby:
		role = "standby shard"
	case cfg.Replica != "":
		role = fmt.Sprintf("shard (replicating to %s)", cfg.Replica)
	}
	fmt.Fprintf(os.Stderr, "dodserve: starting %s %q (r=%g k=%d dim=%d)\n",
		role, cfg.Name, cfg.R, cfg.K, cfg.Dim)
	return httpapi.ListenAndServe("dodserve", addr, srv.Handler(), srv.SetDraining, nil)
}
