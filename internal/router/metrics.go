package router

import "dod/internal/obs"

// routerMetrics are the dod_route_* instruments: the router's shard call
// fan-out (with retry visibility — the first sign of a struggling shard),
// eviction/drain churn, and failover. Request, line and shed series are the
// front end's (internal/httpapi).
type routerMetrics struct {
	evictions    *obs.Counter
	drains       *obs.Counter
	shardCalls   *obs.Counter
	shardRetries *obs.Counter
	shardErrors  *obs.Counter
	supportRPCs  *obs.Counter
	probeFails   *obs.Counter
	failovers    *obs.Counter
	promotes     *obs.Counter
	replicaLost  *obs.Counter
	forcedLoss   *obs.Counter
}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	return &routerMetrics{
		evictions:    reg.Counter("dod_route_evictions_total", "evictions commanded across shards"),
		drains:       reg.Counter("dod_route_drains_total", "shard drain/handoff operations completed"),
		shardCalls:   reg.Counter("dod_route_shard_calls_total", "HTTP calls issued to shards"),
		shardRetries: reg.Counter("dod_route_shard_retries_total", "shard calls that needed a retry"),
		shardErrors:  reg.Counter("dod_route_shard_errors_total", "shard calls that exhausted retries"),
		supportRPCs:  reg.Counter("dod_support_rpc_total", "boundary support round trips issued over the wire"),
		probeFails:   reg.Counter("dod_route_probe_failures_total", "failed shard health probes"),
		failovers:    reg.Counter("dod_route_failovers_total", "automatic drain-on-unhealthy failovers"),
		promotes:     reg.Counter("dod_promote_total", "standby promotions committed"),
		replicaLost:  reg.Counter("dod_replica_lost_total", "ops known lost to replication lag at promotion decisions"),
		forcedLoss:   reg.Counter("dod_route_forced_loss_total", "window entries dropped by forced drains"),
	}
}
