package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dod"
	"dod/internal/geom"
	"dod/internal/obs"
	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
	"dod/internal/wirejson"
)

// serveSpec is one row of the issue's workload table.
type serveSpec struct {
	name    string
	sharded bool
	lines   int     // NDJSON lines per request
	rate    float64 // requests per second on each connection in phase open
	// satCap is the ingest rate, in points per second, the saturation
	// phase's request pool is rendered for; a system faster than this
	// drains the pool early and the run says so.
	satCap float64
	// pass is how many requests of each kind the traced run's sequential
	// pass makes.
	pass int
}

var (
	// 200 req/s x 100 lines is about 30 % of the ~68 k pts/s this tier
	// ingests once every admission evicts. (The issue's 300 req/s assumed
	// the never-full ingest rate, ~170 k pts/s.)
	serveSingle = serveSpec{name: "serve-single", lines: 100, rate: 200, satCap: 150_000, pass: 300}
	// 30 req/s x 50 lines is about 30 % of the ~5.2 k pts/s the sharded
	// tier ingests once its window is full; the issue's 50 req/s assumed
	// ~7 k pts/s.
	serveSharded = serveSpec{name: "serve-sharded", sharded: true, lines: 50, rate: 30, satCap: 20_000, pass: 100}
)

const (
	prefillLines = 1000 // per prefill request
	warmRequests = 20   // of each kind, before anything is timed
	scoreRing    = 512  // distinct score request bodies, cycled
)

// conn is one client connection: its own transport capped at one
// connection to the host, and a reusable response buffer.
type conn struct {
	client *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{client: &http.Client{Transport: tr}, tr: tr}
}

// post sends one NDJSON body and returns the response bytes, which stay
// valid until the next post. Anything but a 200 is an error.
func (c *conn) post(url string, body []byte) ([]byte, error) {
	resp, err := c.client.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// serveTier is the system under test: one server, or a router and its
// shards, behind real loopback listeners.
type serveTier struct {
	url       string
	stops     []func()
	evictions func() uint64
	// resident returns the window's resident IDs and current outlier IDs.
	resident func() (ids, outliers []uint64, err error)
	regs     []*obs.Registry // sharded: router first, then shards
	taps     *tierTaps       // traced set-ups only
}

func (t *serveTier) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
}

func streamConfig() stream.Config {
	return stream.Config{R: serveR, K: serveK, Dim: 2, Capacity: serveCapacity}
}

func startSingle(traced bool) (*serveTier, error) {
	srv, err := serve.New(serve.Config{Stream: streamConfig()})
	if err != nil {
		return nil, err
	}
	t := &serveTier{}
	handler := srv.Handler()
	if traced {
		t.taps = newTierTaps(0)
		handler = t.taps.router.wrap(handler)
	}
	hs := httptest.NewServer(handler)
	t.url = hs.URL
	t.stops = []func(){srv.Close, hs.Close}
	t.evictions = func() uint64 { return srv.Window().Stats().Evicted }
	t.resident = func() ([]uint64, []uint64, error) {
		snap := srv.Window().Snapshot()
		ids := make([]uint64, len(snap.Points))
		for i, p := range snap.Points {
			ids[i] = p.ID
		}
		return ids, snap.OutlierIDs, nil
	}
	return t, nil
}

func startSharded(shards int, traced bool) (*serveTier, error) {
	t := &serveTier{}
	if traced {
		t.taps = newTierTaps(shards)
	}
	var infos []router.ShardInfo
	for i := 0; i < shards; i++ {
		reg := obs.NewRegistry()
		cfg := serve.ShardServerConfig{Name: fmt.Sprintf("s%d", i), R: serveR, K: serveK, Dim: 2, Obs: reg}
		if traced {
			cfg.Transport = t.taps.shardTx[i]
		}
		ss, err := serve.NewShard(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		handler := ss.Handler()
		if traced {
			handler = t.taps.shards[i].wrap(handler)
		}
		hs := httptest.NewServer(handler)
		t.stops = append(t.stops, ss.Close, hs.Close)
		t.regs = append(t.regs, reg)
		infos = append(infos, router.ShardInfo{Name: cfg.Name, URL: hs.URL})
	}
	routerReg := obs.NewRegistry()
	rcfg := router.Config{R: serveR, K: serveK, Dim: 2, Capacity: serveCapacity, Shards: infos, Obs: routerReg}
	if traced {
		rcfg.Transport = t.taps.routerTx
	}
	rt, err := router.New(rcfg)
	if err != nil {
		t.close()
		return nil, err
	}
	if err := rt.Start(context.Background()); err != nil {
		t.close()
		return nil, err
	}
	handler := rt.Handler()
	if traced {
		handler = t.taps.router.wrap(handler)
	}
	hs := httptest.NewServer(handler)
	t.url = hs.URL
	t.stops = append(t.stops, rt.Close, hs.Close)
	t.regs = append([]*obs.Registry{routerReg}, t.regs...)
	evicted := routerReg.Counter("dod_route_evictions_total", "evictions commanded across shards")
	t.evictions = func() uint64 { return uint64(evicted.Value()) }
	t.resident = func() ([]uint64, []uint64, error) { return routerSnapshot(hs.URL) }
	return t, nil
}

// routerSnapshot reads the router's seq-ordered view of the global window.
func routerSnapshot(base string) (ids, outliers []uint64, err error) {
	resp, err := http.Get(base + "/v1/snapshot")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return nil, nil, fmt.Errorf("snapshot: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var snap struct {
		Points []struct {
			ID      uint64 `json:"id"`
			Outlier bool   `json:"outlier"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	for _, p := range snap.Points {
		ids = append(ids, p.ID)
		if p.Outlier {
			outliers = append(outliers, p.ID)
		}
	}
	sort.Slice(outliers, func(i, j int) bool { return outliers[i] < outliers[j] })
	return ids, outliers, nil
}

// serveRun is a set-up serve workload: the tier with its window full, two
// connections, and every request body of the run pre-rendered.
type serveRun struct {
	spec serveSpec
	gen  *streamGen
	tier *serveTier
	a, b *conn // the run's two connections

	// bodies are the ingest requests after the prefill, in stream order.
	// A sender claims the next one through next and files the response
	// under the body's index, so two connections can share the stream.
	bodies  [][]byte
	answers []answer
	next    atomic.Int64
	scores  [][]byte // ring of score requests
	scoreAt atomic.Int64

	prefillRate float64 // points per second while the window filled
}

// answer is what the post-run oracle keeps of one ingest response: its
// digest, and the sequence number of its first line. A request is admitted
// as a unit (one window or router lock), so first sequence numbers order
// the requests exactly as the tier processed them.
type answer struct {
	digest uint64
	seq    uint64 // 0: the request failed
}

// sent is how many ingest bodies have been claimed.
func (s *serveRun) sent() int { return min(int(s.next.Load()), len(s.bodies)) }

func setupServe(spec serveSpec) func(runConfig, bool) (runner, error) {
	return func(cfg runConfig, traced bool) (runner, error) {
		s := &serveRun{spec: spec, gen: newStreamGen(cfg.seed, serveCapacity), a: newConn(), b: newConn()}
		// Every request the run can send, rendered before anything is timed.
		n := warmRequests + int(spec.rate*cfg.open().Seconds()) + int(spec.satCap*cfg.sat().Seconds()*2/3)/spec.lines + 1
		if traced {
			n = warmRequests + 2*spec.pass + 2*int(spec.rate*cfg.open().Seconds())
		}
		s.bodies = renderBatches(s.gen.ingestPoint, serveCapacity, n, spec.lines)
		s.answers = make([]answer, n)
		s.scores = renderBatches(s.gen.scorePoint, 0, scoreRing, spec.lines)

		var err error
		if spec.sharded {
			s.tier, err = startSharded(3, traced)
		} else {
			s.tier, err = startSingle(traced)
		}
		if err != nil {
			return nil, err
		}
		// Fill the window to capacity through the public endpoint, so the
		// first timed ingest already evicts.
		prefill := renderBatches(s.gen.ingestPoint, 0, serveCapacity/prefillLines, prefillLines)
		start := time.Now()
		for _, body := range prefill {
			if _, err := s.a.post(s.tier.url+"/v1/ingest", body); err != nil {
				s.close()
				return nil, fmt.Errorf("prefill: %w", err)
			}
		}
		s.prefillRate = serveCapacity / time.Since(start).Seconds()
		if ids, _, err := s.tier.resident(); err != nil || len(ids) != serveCapacity {
			s.close()
			return nil, fmt.Errorf("prefill left %d residents, want %d (err %v)", len(ids), serveCapacity, err)
		}
		warm := newResult(spec.name, traced)
		for i := 0; i < warmRequests; i++ {
			s.postIngest(s.a, warm)
			s.postScore(s.b, warm)
		}
		if warm.Failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %v", warm.Notes)
		}
		return s, nil
	}
}

func (s *serveRun) close() {
	s.tier.close()
	s.a.tr.CloseIdleConnections()
	s.b.tr.CloseIdleConnections()
}

// postIngest sends the next unclaimed ingest body on c and files the
// response for the post-run oracle. It reports whether a body was left.
func (s *serveRun) postIngest(c *conn, res *result) bool {
	idx := int(s.next.Add(1)) - 1
	if idx >= len(s.bodies) {
		return false
	}
	res.Attempted++
	resp, err := c.post(s.tier.url+"/v1/ingest", s.bodies[idx])
	if err != nil {
		res.fail(1, "ingest: %v", err)
		return true
	}
	s.answers[idx] = answer{digest: bytesDigest(resp), seq: firstSeq(resp)}
	if s.answers[idx].seq == 0 {
		res.fail(1, "ingest request %d: no sequence number in the first answer line", idx)
	}
	return true
}

// firstSeq reads the "seq" of a verdict stream's first line; 0 if absent
// (a line answered with an error carries none).
func firstSeq(resp []byte) uint64 {
	line, _, _ := bytes.Cut(resp, []byte{'\n'})
	_, rest, ok := bytes.Cut(line, []byte(`"seq":`))
	if !ok {
		return 0
	}
	var seq uint64
	for _, ch := range rest {
		if ch < '0' || ch > '9' {
			break
		}
		seq = seq*10 + uint64(ch-'0')
	}
	return seq
}

// postScore sends the next score body on c. Score answers depend on what
// the concurrent ingest had admitted by then, so they are checked for
// shape — one clean line per query — not for value.
func (s *serveRun) postScore(c *conn, res *result) {
	res.Attempted++
	at := int(s.scoreAt.Add(1)) - 1
	resp, err := c.post(s.tier.url+"/v1/score", s.scores[at%len(s.scores)])
	switch {
	case err != nil:
		res.fail(1, "score: %v", err)
	case bytes.Count(resp, []byte{'\n'}) != s.spec.lines:
		res.fail(1, "score: %d lines answered, want %d", bytes.Count(resp, []byte{'\n'}), s.spec.lines)
	case bytes.Contains(resp, []byte(`"error"`)):
		res.fail(1, "score: a line carries an error")
	}
}

// phaseOut is what one connection did in one phase.
type phaseOut struct {
	res   *result // this goroutine's own tallies, merged afterwards
	stats openLoopStats
	n     int // requests answered
}

// openPhase runs both connections on their open-loop schedules.
func (s *serveRun) openPhase(length time.Duration) (ingest, score phaseOut) {
	n := int(s.spec.rate * length.Seconds())
	ingest.res, score.res = newResult(s.spec.name, false), newResult(s.spec.name, false)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ingest.stats = runOpenLoop(wallClock{}, start, s.spec.rate, n, func(int) { s.postIngest(s.a, ingest.res) })
	}()
	go func() {
		defer wg.Done()
		score.stats = runOpenLoop(wallClock{}, start, s.spec.rate, n, func(int) { s.postScore(s.b, score.res) })
	}()
	wg.Wait()
	ingest.n, score.n = n, n
	return ingest, score
}

// satWindows is how many equal windows a saturation turn's counted part is
// cut into; the turn's rate is the median of the windows' rates, so a burst
// of interference from the host costs one window, not the figure.
const satWindows = 8

// windowRates cuts [from, to) into satWindows equal windows and returns
// each one's completions per second; stamps are completion times since the
// turn began.
func windowRates(stamps []time.Duration, from, to time.Duration) []float64 {
	width := (to - from) / satWindows
	if width <= 0 {
		return nil
	}
	rates := make([]float64, satWindows)
	for _, st := range stamps {
		if w := int((st - from) / width); st >= from && w < satWindows {
			rates[w]++
		}
	}
	for w := range rates {
		rates[w] /= width.Seconds()
	}
	return rates
}

// satPhase is the closed loop: both connections send ingest requests back
// to back for two thirds of length, then both send score requests for the
// rest (score answers ten times as many lines a second, so it needs less
// time for as steady a figure), and returns each turn's window rates in
// requests per second. Two requests in flight keep the tier's serialized section (the
// window lock, the router lock) always occupied, so the figure is the
// tier's capacity; with one in flight it is capacity minus a wake-up
// latency per request that swings +-12 % between identical runs on this
// box. Running ingest and score side by side swings it more (+-15 %: they
// fight for two cores), so they take turns; how writes and reads disturb
// each other is phase open's business, where both run at a fixed rate. The
// first fifth of each turn is a ramp and is not counted: coming out of the
// mostly idle open phase the box takes a few hundred milliseconds to reach
// its rate.
func (s *serveRun) satPhase(length time.Duration) (ingest, score phaseOut, ingestRates, scoreRates []float64) {
	both := func(length time.Duration, post func(c *conn, res *result) bool) (phaseOut, []float64) {
		out := phaseOut{res: newResult(s.spec.name, false)}
		parts := [2]phaseOut{{res: newResult(s.spec.name, false)}, {res: newResult(s.spec.name, false)}}
		var stamps [2][]time.Duration
		start := time.Now()
		var wg sync.WaitGroup
		for i, c := range []*conn{s.a, s.b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < length && post(c, parts[i].res) {
					stamps[i] = append(stamps[i], time.Since(start))
				}
			}()
		}
		wg.Wait()
		merge(out.res, parts[0].res, parts[1].res)
		all := append(stamps[0], stamps[1]...)
		out.n = len(all)
		// A drained request pool ends the turn early; rate what was sent.
		end := min(length, time.Since(start))
		return out, windowRates(all, length/5, end)
	}
	ingest, ingestRates = both(2*length/3, s.postIngest)
	score, scoreRates = both(length-2*length/3, func(c *conn, res *result) bool { s.postScore(c, res); return true })
	return ingest, score, ingestRates, scoreRates
}

// merge adds the attempted and failed counts of parts, and their reasons,
// to res.
func merge(res *result, parts ...*result) {
	for _, p := range parts {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		res.Notes = append(res.Notes, p.Notes...)
	}
}

func (s *serveRun) measure(cfg runConfig, res *result) {
	var m0, m1 runtime.MemStats
	ev0 := s.tier.evictions()

	runtime.ReadMemStats(&m0)
	openIn, openSc := s.openPhase(cfg.open())
	runtime.ReadMemStats(&m1)
	merge(res, openIn.res, openSc.res)
	openLines := float64((openIn.n + openSc.n) * s.spec.lines)
	res.putMedian("ingest_p50_ms", openIn.stats.Latency, 1e3)
	res.putPercentile("ingest_p95_ms", openIn.stats.Latency, 95, 1e3)
	res.putMedian("score_p50_ms", openSc.stats.Latency, 1e3)
	res.putPercentile("score_p95_ms", openSc.stats.Latency, 95, 1e3)
	res.put("allocs_per_pt", float64(m1.Mallocs-m0.Mallocs)/openLines)
	s.generatorHealth(res, openIn.stats, openSc.stats)

	satIn, satSc, ingestRates, scoreRates := s.satPhase(cfg.sat())
	merge(res, satIn.res, satSc.res)
	res.putMedian("sat_ingest_pts_per_s", ingestRates, float64(s.spec.lines))
	res.putMedian("sat_score_pts_per_s", scoreRates, float64(s.spec.lines))
	if s.sent() >= len(s.bodies) {
		res.note("saturation phase drained its %d-request pool: raise satCap", len(s.bodies))
	}

	res.put("prefill_pts_per_s", s.prefillRate)
	evicted := s.tier.evictions() - ev0
	res.put("evictions", float64(evicted))
	if evicted == 0 {
		res.Attempted++
		res.fail(1, "no eviction during the timed phases: the window was not at capacity")
	}
	start := time.Now()
	s.verify(res)
	res.put("verify_s", time.Since(start).Seconds())
}

// generatorHealth records how well the open-loop generator kept time and
// fails the run, as invalid rather than slow, when it did not.
func (s *serveRun) generatorHealth(res *result, ingest, score openLoopStats) {
	res.put("gen.late_p99_ms", 1e3*max(p99(ingest.Late), p99(score.Late)))
	res.put("gen.backlog_max", float64(max(ingest.BacklogMax, score.BacklogMax)))
	valid := ingest.valid() && score.valid()
	if valid {
		res.put("open_valid", 1)
	} else {
		res.put("open_valid", 0)
		res.Attempted++
		res.fail(1, "phase open invalid: the generator fell behind (tail lateness %s ingest, %s score over a %s phase); latencies describe its queue",
			ingest.TailLate, score.TailLate, ingest.Length)
	}
}

// verify is the post-run oracle. The ingest connection's verdict stream
// must equal, byte for byte, what an in-process stream.Window answers when
// fed the same lines in the same order; and the tier's final outlier set
// must equal the centralized detector's over its final residents.
func (s *serveRun) verify(res *result) {
	ref, err := stream.NewWindow(streamConfig())
	if err != nil {
		res.Attempted++
		res.fail(1, "reference window: %v", err)
		return
	}
	now := time.Unix(0, 0) // no TTL: arrival time decides nothing
	feed := func(first uint64, n int) ([]stream.Verdict, []error) {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = s.gen.ingestPoint(first + uint64(i))
		}
		return ref.ProcessBatch(pts, now)
	}
	for at := 0; at < serveCapacity; at += prefillLines {
		feed(uint64(at), prefillLines)
	}
	// Replay the answered requests in the order the tier admitted them.
	order := make([]int, 0, s.sent())
	for idx := 0; idx < s.sent(); idx++ {
		if s.answers[idx].seq != 0 {
			order = append(order, idx)
		}
	}
	sort.Slice(order, func(i, j int) bool { return s.answers[order[i]].seq < s.answers[order[j]].seq })
	var want []byte
	for _, idx := range order {
		verdicts, errs := feed(uint64(serveCapacity+idx*s.spec.lines), s.spec.lines)
		want = want[:0]
		for i, v := range verdicts {
			msg := ""
			if errs[i] != nil {
				msg = errs[i].Error()
			}
			want = wirejson.AppendVerdict(want, v.ID, v.Seq, v.Neighbors, v.Outlier, v.Evicted, msg)
		}
		res.Attempted++
		if bytesDigest(want) != s.answers[idx].digest {
			res.fail(1, "ingest request %d: verdict bytes differ from the in-process window's", idx)
		}
	}

	res.Attempted++
	ids, outliers, err := s.tier.resident()
	if err != nil {
		res.fail(1, "snapshot: %v", err)
		return
	}
	points := make([]dod.Point, len(ids))
	for i, id := range ids {
		points[i] = s.gen.ingestPoint(id - ingestIDBase)
	}
	wantDigest, err := oracleDigest(points, dod.BruteForce, serveR, serveK)
	switch {
	case err != nil:
		res.fail(1, "snapshot oracle: %v", err)
	case wantDigest != idDigest(outliers):
		res.fail(1, "snapshot: %d outliers among %d residents disagree with DetectCentralized", len(outliers), len(ids))
	}
}
