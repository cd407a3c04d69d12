package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"dod/internal/geom"
	"dod/internal/index"
)

// The harness tests use no sleeps and assert on no wall-clock reading:
// time comes from fakeClock, data from fixed seeds.

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// The highest percentile reported is the highest with >= 10 samples
	// beyond it: p50 from 20 samples, p95 from 200, p99 from 1000.
	for _, tc := range []struct {
		p    float64
		need int
	}{{50, 20}, {75, 40}, {90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if supported(tc.need-1, tc.p) || !supported(tc.need, tc.p) {
			t.Errorf("p%v must need exactly %d samples", tc.p, tc.need)
		}
	}
	s := []float64{1, 2, 3, 4, 5}
	if got := percentileSorted(s, 50); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := percentileSorted(s, 75); got != 4 {
		t.Errorf("p75 of 1..5 = %v", got)
	}
	res := newResult("w", false)
	res.putPercentile("ingest_p95_ms", make([]float64, 199), 95, 1)
	if _, ok := res.Metrics["ingest_p95_ms"]; ok {
		t.Error("a p95 over 199 samples was reported")
	}
}

// fakeClock is a clock the test moves by hand.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopMeasuresFromDueTimeThroughAStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	const (
		rate    = 100.0 // one request every 10 ms
		service = time.Millisecond
		stall   = 55 * time.Millisecond
	)
	st := runOpenLoop(clk, start, rate, 12, func(i int) {
		if i == 2 {
			clk.Sleep(stall)
			return
		}
		clk.Sleep(service)
	})

	ms := func(s float64) float64 { return math.Round(s*1e6) / 1e3 }
	// Requests 0 and 1 go out on time and take the service time.
	for i := 0; i < 2; i++ {
		if ms(st.Late[i]) != 0 || ms(st.Latency[i]) != 1 {
			t.Errorf("request %d: late %v ms, latency %v ms", i, ms(st.Late[i]), ms(st.Latency[i]))
		}
	}
	// Request 2 is due at 20 ms and answered at 75 ms.
	if ms(st.Latency[2]) != 55 {
		t.Errorf("stalled request latency %v ms, want 55", ms(st.Latency[2]))
	}
	// Requests 3..7 were due at 30..70 ms, while the responder was stalled:
	// they go out back to back from 75 ms on, 1 ms each, and their latency
	// counts the wait from their due time, not from when they were sent.
	wantLate := []float64{45, 36, 27, 18, 9}
	for k, want := range wantLate {
		i := 3 + k
		if ms(st.Late[i]) != want || ms(st.Latency[i]) != want+1 {
			t.Errorf("request %d: late %v ms, latency %v ms; want %v and %v", i, ms(st.Late[i]), ms(st.Latency[i]), want, want+1)
		}
	}
	// From request 8 (due 80 ms, previous answered at 80 ms) the schedule holds again.
	for i := 8; i < 12; i++ {
		if ms(st.Late[i]) != 0 || ms(st.Latency[i]) != 1 {
			t.Errorf("request %d after recovery: late %v ms, latency %v ms", i, ms(st.Late[i]), ms(st.Latency[i]))
		}
	}
	// At 75 ms requests 3..7 were due and unsent; 3 is the one being sent.
	if st.BacklogMax != 4 {
		t.Errorf("BacklogMax = %d, want 4", st.BacklogMax)
	}
	if !st.valid() {
		t.Error("a stall the generator recovered from must not invalidate the run")
	}

	// A responder slower than the schedule: the backlog grows to the end.
	clk = &fakeClock{now: time.Unix(2000, 0)}
	st = runOpenLoop(clk, clk.now, rate, 40, func(int) { clk.Sleep(15 * time.Millisecond) })
	if st.valid() {
		t.Errorf("generator %v behind at the tail of a %v phase reported valid", st.TailLate, st.Length)
	}
	if st.BacklogMax < 10 {
		t.Errorf("BacklogMax = %d for a responder at 2/3 of the rate", st.BacklogMax)
	}
}

func TestWindowRateIsTheMedianWindow(t *testing.T) {
	// A 10 s turn with a 2 s ramp: eight 1 s windows from 2 s to 10 s.
	var stamps []time.Duration
	add := func(from, to time.Duration, perSecond int) {
		step := time.Second / time.Duration(perSecond)
		for at := from; at < to; at += step {
			stamps = append(stamps, at)
		}
	}
	add(0, 2*time.Second, 10)               // the ramp runs slow and is not counted
	add(2*time.Second, 6*time.Second, 100)  // steady
	add(6*time.Second, 7*time.Second, 20)   // the host stalls for one window
	add(7*time.Second, 10*time.Second, 100) // steady again
	if got := median(windowRates(stamps, 2*time.Second, 10*time.Second)); got != 100 {
		t.Errorf("median window rate = %v, want the steady 100/s", got)
	}
	if got := windowRates(nil, time.Second, time.Second); got != nil {
		t.Errorf("windowRates over an empty span = %v", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a
		{ID: 3, Name: "c", Start: 90, End: 120, Parent: 0},  // sticks out of root
		{ID: 4, Name: "aa", Start: 15, End: 25, Parent: 1},  // nested in a
		{ID: 5, Name: "dup", Start: 12, End: 38, Parent: 0}, // inside a's cover already
	}
	self := selfTimes(spans)
	// root: a ∪ dup ∪ b covers [10,60) = 50, c covers [90,100) = 10.
	if self[0] != 40 {
		t.Errorf("root self = %d, want 40", self[0])
	}
	if self[1] != 20 { // a is 30 long, aa covers 10
		t.Errorf("a self = %d, want 20", self[1])
	}
	for _, id := range []int{2, 3, 4, 5} {
		if want := spans[id].End - spans[id].Start; self[id] != want {
			t.Errorf("leaf %d self = %d, want its duration %d", id, self[id], want)
		}
	}
	total := rollUp(spans)
	if total["root"].Self != 40 || total["root"].Total != 100 || total["a"].Count != 1 {
		t.Errorf("rollUp root = %+v", total["root"])
	}
}

func TestLinkParentsNestsByRequestAndContainment(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "router /v1/ingest", Start: 0, End: 100, Parent: -1, Req: "r1"},
		{ID: 1, Name: "router.call evict", Start: 5, End: 20, Parent: -1, Req: "r1"},
		{ID: 2, Name: "shard evict", Start: 7, End: 18, Parent: -1, Req: "r1"},
		{ID: 3, Name: "shard.call support", Start: 9, End: 12, Parent: -1, Req: "r1"},
		{ID: 4, Name: "router /v1/score", Start: 10, End: 50, Parent: -1, Req: "r2"}, // concurrent request
		{ID: 5, Name: "shard ingest", Start: 62, End: 70, Parent: -1, Req: ""},       // carries no id: by time
		{ID: 6, Name: "router.call ingest", Start: 60, End: 90, Parent: -1, Req: "r1"},
		{ID: 7, Name: "router.call support", Start: 20, End: 30, Parent: -1, Req: "r2"}, // inside r1's span too, but r2's
	}
	linkParents(spans)
	want := []int{-1, 0, 1, 2, -1, 6, 0, 4}
	for i, w := range want {
		if spans[i].Parent != w {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Name, spans[i].Parent, w)
		}
	}
}

func TestSeedDeterminesWorkloadBytes(t *testing.T) {
	render := func(seed int64) ([]byte, []byte) {
		g := newStreamGen(seed, 2000)
		ingest := bytes.Join(renderBatches(g.ingestPoint, 2000, 3, 50), nil)
		score := bytes.Join(renderBatches(g.scorePoint, 0, 3, 50), nil)
		return ingest, score
	}
	i1, s1 := render(7)
	i2, s2 := render(7)
	if !bytes.Equal(i1, i2) || !bytes.Equal(s1, s2) {
		t.Fatal("one seed rendered two different streams")
	}
	i3, _ := render(8)
	if bytes.Equal(i1, i3) {
		t.Fatal("two seeds rendered the same stream")
	}
	if bytes.Equal(i1, s1) {
		t.Fatal("ingest and query streams coincide")
	}
	// Items are a pure function of their index: an oracle can rebuild any
	// point from its ID.
	g := newStreamGen(7, 2000)
	if a, b := g.ingestPoint(4321), g.ingestPoint(4321); a.ID != b.ID || a.Coords[0] != b.Coords[0] || a.Coords[1] != b.Coords[1] {
		t.Fatal("ingestPoint is not a function of its index")
	}
	for _, spec := range []batchSpec{batchSmall, batchHighDim} {
		a, b := spec.gen(3), spec.gen(3)
		if idDigest(pointIDs(a)) != idDigest(pointIDs(b)) || a[len(a)/2].Coords[0] != b[len(b)/2].Coords[0] {
			t.Errorf("%s: one seed generated two datasets", spec.name)
		}
	}
}

func pointIDs(pts []geom.Point) []uint64 {
	ids := make([]uint64, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	return ids
}

// meanNeighbors is the density measure the detectors care about: the mean
// number of neighbours within R, over all points.
func meanNeighbors(t *testing.T, pts []geom.Point) float64 {
	t.Helper()
	ix, err := index.New(index.Config{Dim: 2, R: serveR})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	var sum int
	for _, p := range pts {
		n, err := ix.NeighborCount(p, math.MaxInt32)
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	return float64(sum) / float64(len(pts))
}

func TestStationaryStreamKeepsWindowDensity(t *testing.T) {
	const n = 5000
	g := newStreamGen(11, n)
	base := meanNeighbors(t, g.base)
	// Windows at the start, mid-cycle, and many cycles in.
	for _, first := range []uint64{0, n / 3, 7*n + n/2, 40 * n} {
		window := make([]geom.Point, n)
		seen := make(map[int32]bool, n)
		for i := range window {
			window[i] = g.ingestPoint(first + uint64(i))
			seen[g.perm[(first+uint64(i))%n]] = true
		}
		if len(seen) != n {
			t.Fatalf("window at %d holds %d distinct base points, want %d", first, len(seen), n)
		}
		got := meanNeighbors(t, window)
		if rel := math.Abs(got-base) / base; rel > 0.05 {
			t.Errorf("window at %d: mean neighbours %.3f vs base %.3f (%.1f%% off, limit 5%%)", first, got, base, 100*rel)
		}
	}
}

func handMadeRecord(values map[string]measurement) *record {
	run := newResult("serve-single", false)
	for name, m := range values {
		m.Unit = defByName[name].Unit
		run.Metrics[name] = m
	}
	return &record{Schema: schemaV2, Runs: []*result{run}}
}

func TestCompareVerdicts(t *testing.T) {
	a := handMadeRecord(map[string]measurement{
		"ingest_p50_ms":        {Value: 10, N: 100, Spread: 0.02},
		"sat_ingest_pts_per_s": {Value: 1000, N: 8, Spread: 0.04},
		"allocs_per_pt":        {Value: 4, N: 1},
		"setup_s":              {Value: 1, N: 3, Spread: 0.30}, // noisier than its 25 % bound
		"sim_makespan_s":       {Value: 2, N: 1},
		"failed_frac":          {Value: 0, N: 1},
		"score_p50_ms":         {Value: 1, N: 1}, // reported without a bound: never judged
		"gen.late_p99_ms":      {Value: 1, N: 1}, // a layer: never judged
	})
	b := handMadeRecord(map[string]measurement{
		"ingest_p50_ms":        {Value: 10.9, N: 100, Spread: 0.02}, // +9 %: inside 10 %
		"sat_ingest_pts_per_s": {Value: 700, N: 8, Spread: 0.06},    // -30 %: worse (higher is better)
		"allocs_per_pt":        {Value: 3, N: 1},                    // better
		"setup_s":              {Value: 2, N: 3, Spread: 0.30},      // twice as slow, but who can tell
		"sim_makespan_s":       {Value: 2.1, N: 1},                  // +5 %: worse than 1 %
		"failed_frac":          {Value: 0.001, N: 1},                // any failure is worse
		"score_p50_ms":         {Value: 9, N: 1},
		"gen.late_p99_ms":      {Value: 50, N: 1},
	})
	got := map[string]verdict{}
	for _, r := range compareRecords(a, b) {
		if r.Workload != "serve-single" {
			t.Errorf("row for workload %q", r.Workload)
		}
		got[r.Metric] = r.Verdict
	}
	want := map[string]verdict{
		"ingest_p50_ms":        verdictOK,
		"sat_ingest_pts_per_s": verdictWorse,
		"allocs_per_pt":        verdictOK,
		"setup_s":              verdictUnresolved,
		"sim_makespan_s":       verdictWorse,
		"failed_frac":          verdictWorse,
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want exactly %v", got, want)
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s: verdict %q, want %q", m, got[m], w)
		}
	}

	// Deterministic counts of a traced run either repeat or differ.
	ta, tb := newResult("batch-small", true), newResult("batch-small", true)
	ta.put("plan.partitions", 147)
	tb.put("plan.partitions", 147)
	ta.put("detect.dist_comps", 900)
	tb.put("detect.dist_comps", 901)
	ta.put("plan.build_s", 0.05) // a time: not a count, not judged
	tb.put("plan.build_s", 0.5)
	rows := compareRecords(&record{Runs: []*result{ta}}, &record{Runs: []*result{tb}})
	if len(rows) != 2 || countVerdict(rows, verdictSame) != 1 || countVerdict(rows, verdictDiffers) != 1 {
		t.Errorf("count rows = %+v", rows)
	}

	// -aa widens the spread later compares use to the observed difference,
	// and never narrows it: setup_s keeps the 30 % its own samples showed.
	b.Runs[0].Metrics["setup_s"] = measurement{Value: 1, N: 3, Spread: 0.30}
	foldAA(a, b)
	if s := a.Runs[0].Metrics["ingest_p50_ms"].Spread; math.Abs(s-0.9/10.45) > 1e-9 {
		t.Errorf("folded spread = %v", s)
	}
	if s := a.Runs[0].Metrics["setup_s"].Spread; s != 0.30 {
		t.Errorf("a pair that agrees narrowed the spread to %v", s)
	}
}

// TestBenchmarkJSONMatchesDictionary pins the committed BENCHMARK.json to
// the dictionary and to the limits of the contract it is written for.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	disk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench -emit-benchmark-json`; regenerate it")
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(benchmarkJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Errorf("%d workloads", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(doc.EndToEnd), len(doc.PerLayer))
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}

	// The driver's line carries exactly the declared names.
	for _, traced := range []bool{false, true} {
		res := newResult("batch-small", traced)
		res.Attempted = 3
		res.put("job_p50_s", 0.0015)
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(doc.EndToEnd)
		if traced {
			want = len(doc.PerLayer)
		}
		if len(line.Metrics) != want || !line.Correct || line.Attempted != 3 {
			t.Errorf("traced=%v: driver line has %d metrics (want %d), correct=%v", traced, len(line.Metrics), want, line.Correct)
		}
	}
}
