// Chaos harness: the sharded tier's byte-identity guarantee under seeded,
// reproducible transport faults on every router→shard hop.
//
// The router's HTTP client rolls decisions at sites "route.<path>" and each
// shard's outbound client at "shard.<name><path>" (only a replicating shard
// makes outbound calls; see TestReplicaChaosFailover), all pure functions of
// (seed, site). The injected mix is latency, errors, dropped responses and
// partition windows — exactly the faults the retry + idempotency-key layer
// must absorb without the verdict stream diverging from the single-process
// reference. Corrupt is deliberately absent: shard responses are plain
// JSON, not codec-sealed frames, so a flipped byte is a transport-integrity
// problem (TCP/TLS territory), not a protocol-recovery one.
//
// Any failure prints its seed;
//
//	go test ./internal/router/ -run Chaos -fault.seed=N
//
// replays exactly that schedule.
package router_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"dod/internal/fault"
	"dod/internal/router"
)

// faultSeed, when set (>0), narrows the chaos matrix to a single seed —
// the replay knob for a failing schedule.
var faultSeed = flag.Int64("fault.seed", 0, "run the router chaos matrix with only this fault-injection seed")

// routeChaosSeeds is the fixed PR matrix.
var routeChaosSeeds = []int64{201, 202, 203}

// routeChaosRules tunes the mix so faults fire often enough to exercise
// retry, response-replay dedupe and partition ride-out, while staying
// within the retry budget (a fault that exhausts retries surfaces as a
// verdict-line error the reference never emits — a legitimate failure).
func routeChaosRules() []fault.Rule {
	return []fault.Rule{{
		Site:         "*",
		PLatency:     0.10,
		MaxLatency:   2 * time.Millisecond,
		PError:       0.06,
		PDrop:        0.04,
		PPartition:   0.01,
		PartitionLen: 3,
	}}
}

// TestRouterChaosMatchesSingleProcess replays the E2E property under fault
// injection: randomized ingest/score traffic with a mid-stream drain (and
// shard kill), byte-compared against the clean single-process reference.
func TestRouterChaosMatchesSingleProcess(t *testing.T) {
	seeds := routeChaosSeeds
	if *faultSeed > 0 {
		seeds = []int64{*faultSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(fault.Config{Seed: seed, Rules: routeChaosRules()})
			t.Cleanup(func() {
				if !t.Failed() {
					return
				}
				t.Logf("replay with: go test ./internal/router/ -run Chaos -fault.seed=%d", seed)
				for _, d := range in.Schedule() {
					if d.Fault != "none" {
						t.Logf("fault: %+v", d)
					}
				}
			})
			c := newCluster(t, clusterOpts{
				shards:   3,
				capacity: 120,
				block:    2,
				shardTransport: func(name string) http.RoundTripper {
					return fault.Transport(nil, in, "shard."+name)
				},
				routerOpts: func(cfg *router.Config) {
					cfg.Transport = fault.Transport(nil, in, "route.")
					// Generous retry budget: partition windows span 3
					// calls, so 12 attempts ride out back-to-back faults.
					cfg.RetryAttempts = 12
					// No shard may go down under injected probe failures:
					// Score skips a down shard and answers with partial
					// counts, which is correct degraded behavior but not
					// byte-identical to the healthy reference this test
					// asserts against.
					router.SetDownAfter(cfg, math.MaxInt)
				},
			})
			rng := rand.New(rand.NewSource(seed))
			id := c.streamBatches(rng, 0, 6, 25)
			c.drain("s1")
			c.streamBatches(rng, id, 6, 25)
			c.checkFinalState()
		})
	}
}
