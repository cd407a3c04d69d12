package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const schemaV2 = "dodbench/v2"

// measurement is one reported number. Timed metrics carry the sample count
// and the MAD of the samples their median was taken over; counts and
// ratios carry N = 1 unless they are themselves medians.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	MAD   float64 `json:"mad,omitempty"`
	// Spread is the relative uncertainty -compare holds against the bound:
	// from the samples in a single run, the observed difference in -aa.
	Spread float64 `json:"spread,omitempty"`
	// Source is "program" for numbers read from spans or counters the
	// program itself made, empty for what the bench measured from outside.
	Source string `json:"source,omitempty"`
}

// result is what one run (end-to-end or traced) of one workload produced.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	ElapsedS  float64                `json:"elapsed_s"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]measurement `json:"metrics"`
	// Spans is the traced run's trace rolled up by span name: how often it
	// occurred, its total time, and its self time (total minus what its
	// children cover). The spans themselves go to bench/out/.
	Spans map[string]spanSummary `json:"spans,omitempty"`
}

// spanSummary is one span name's share of a trace, in seconds.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Metrics: map[string]measurement{}}
}

// put records a single value under a dictionary name.
func (r *result) put(name string, v float64) { r.putN(name, v, 1, 0) }

// putProgram records a value the program itself produced.
func (r *result) putProgram(name string, v float64) {
	r.putN(name, v, 1, 0)
	m := r.Metrics[name]
	m.Source = "program"
	r.Metrics[name] = m
}

func (r *result) putN(name string, v float64, n int, madv float64) {
	d, ok := defByName[name]
	if !ok {
		panic("bench: metric not in dictionary: " + name)
	}
	r.Metrics[name] = measurement{Value: v, Unit: d.Unit, N: n, MAD: madv, Spread: medianSpread(v, madv, n)}
}

// putMedian records the median of samples scaled by scale (samples are
// kept in seconds; scale converts to the metric's unit).
func (r *result) putMedian(name string, samples []float64, scale float64) {
	if len(samples) == 0 {
		return
	}
	med := median(samples)
	r.putN(name, med*scale, len(samples), mad(samples, med)*scale)
}

// putPercentile records the p-th percentile when the sample supports it.
func (r *result) putPercentile(name string, samples []float64, p, scale float64) {
	if !supported(len(samples), p) {
		return
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r.putN(name, percentileSorted(s, p)*scale, len(samples), 0)
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// record is the dodbench/v2 file: one machine fingerprint and, per
// workload, the end-to-end run and the traced run.
type record struct {
	Schema     string    `json:"schema"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Quick      bool      `json:"quick,omitempty"`
	AA         bool      `json:"aa,omitempty"`
	Started    string    `json:"started"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPU        string    `json:"cpu"`
	Load1      float64   `json:"load1"`
	LoadWarn   bool      `json:"load_warn,omitempty"`
	ElapsedS   float64   `json:"elapsed_s"`
	Runs       []*result `json:"runs"`
}

func newRecord(cfg runConfig) *record {
	rec := &record{
		Schema:     schemaV2,
		Commit:     gitCommit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Quick:      cfg.quick,
		Started:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Load1:      loadAvg1(),
	}
	rec.LoadWarn = rec.Load1 > 0.5*float64(rec.NProc)
	return rec
}

// find returns the run of the given workload and kind, or nil.
func (rec *record) find(workload string, traced bool) *result {
	for _, r := range rec.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func (rec *record) write(path string) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schemaV2 {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, schemaV2)
	}
	return &rec, nil
}

// gitCommit names the commit under test; a checkout that is not a git
// repository (the driver's) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0: no warning
	return v
}
