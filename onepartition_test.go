package dod

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dod/internal/synth"
)

// onePartitionConfig is the benchmark's batch-highdim job configuration:
// DSHC finds one cluster in these 32-d points, so the plan has a single
// partition and one reduce task does all the detection.
func onePartitionConfig(parallelism int) Config {
	return Config{
		R: 4, K: 4, SampleRate: 1, Seed: 1,
		Candidates:  []Detector{NestedLoop, KDTree, ProxGraph},
		NumReducers: 2, NumPartitions: 2,
		Parallelism: parallelism,
	}
}

// onePartitionDigests hashes what a job must reproduce bit for bit: the
// outlier IDs, the report's counters, the simulated stage times and the
// plan's encoding.
func onePartitionDigests(t *testing.T, res *Result) [4]string {
	t.Helper()
	rep := res.Report
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	var ids []byte
	for _, id := range res.OutlierIDs {
		ids = binary.LittleEndian.AppendUint64(ids, id)
	}
	var counters []byte
	for _, v := range []int64{rep.ShuffleBytes, rep.ShuffleRecords, rep.CoreRecords,
		rep.SupportRecords, rep.DistComps, rep.PointsIndexed, int64(rep.NumJobs)} {
		counters = binary.LittleEndian.AppendUint64(counters, uint64(v))
	}
	counters = binary.LittleEndian.AppendUint64(counters, math.Float64bits(rep.ReduceImbalance))
	sim := rep.Simulated
	simulated := []byte(fmt.Sprint(sim.Preprocess, sim.Map, sim.Shuffle, sim.Reduce))
	plan, err := json.Marshal(rep.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return [4]string{sum(ids), sum(counters), sum(simulated), sum(plan)}
}

// TestOnePartitionJobIdentical pins a one-partition 32-d job — the shape
// where a single reduce task holds all the detection work — at every
// Parallelism on both engines: the outliers, counters, simulated times
// and plan must not depend on how many cores the reduce task runs on, or
// on whether it runs in-process or on a remote worker.
func TestOnePartitionJobIdentical(t *testing.T) {
	want := [4]string{
		"341191400bafca162e530f155a690cfb630ab1629bf2ff575e0bf16c457124e1",
		"33116fb20e03289d5444c8c94d474164cb2bfd26ba376e73c29b4a7491296e60",
		"d1daef993b03094cfb2f157108da1272559b1a6a5f0cc9d636330757008d2243",
		"c060d7df6dc8ccd401ee7f9ce9baf6a8cd37da7640a4ef020b91c8fe86937c20",
	}
	pts, _ := synth.HighDimUniform(4000, 32, 4, 0.005, 1)
	coord := startTestCluster(t, 2)
	for _, engine := range []Engine{EngineLocal, EngineCluster} {
		for _, par := range []int{1, 2, 4, 8} {
			cfg := onePartitionConfig(par)
			if engine == EngineCluster {
				cfg.Engine, cfg.Coordinator = EngineCluster, coord
			}
			res, err := Detect(pts, cfg)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", engine, par, err)
			}
			if n := len(res.Report.Plan.Partitions); n != 1 {
				t.Fatalf("%s parallelism %d: plan has %d partitions, want 1", engine, par, n)
			}
			if algo := res.Report.Plan.Partitions[0].Algo; algo != ProxGraph || len(res.OutlierIDs) == 0 {
				t.Fatalf("%s parallelism %d: partition runs %v and finds %d outliers; the pin wants Prox-Graph and some outliers",
					engine, par, algo, len(res.OutlierIDs))
			}
			if got := onePartitionDigests(t, res); got != want {
				t.Errorf("%s parallelism %d: digests (ids, counters, simulated, plan)\n got %q\nwant %q",
					engine, par, got, want)
			}
		}
	}
}
