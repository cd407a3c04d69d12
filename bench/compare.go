package main

import (
	"fmt"
	"io"
	"math"
)

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
	// Count rows: a deterministic work count either repeats or it does not.
	verdictSame    verdict = "same"
	verdictDiffers verdict = "differs"
)

// compareRow is one (metric, workload) pairing of two records.
type compareRow struct {
	Workload string
	Metric   string
	Unit     string
	A, B     float64
	Change   float64 // relative, positive = worse
	Bound    float64
	Spread   float64
	Verdict  verdict
}

// judge applies one dictionary entry to a pair of measurements. A bounded
// row whose recorded spread exceeds its bound cannot tell a regression from
// noise and is unresolved, whatever the two values say; an unbounded row is
// a deterministic count, which either repeats or does not.
func judge(d *metricDef, a, b measurement, bounded bool) compareRow {
	row := compareRow{Metric: d.Name, Unit: d.Unit, A: a.Value, B: b.Value, Bound: d.Bound, Spread: math.Max(a.Spread, b.Spread)}
	if !bounded {
		row.Verdict = verdictSame
		if a.Value != b.Value {
			row.Verdict = verdictDiffers
		}
		return row
	}
	switch {
	case a.Value == 0:
		// Only failed_frac may sit at zero; any failure at all is worse.
		if b.Value > 0 {
			row.Change = math.Inf(1)
		}
	case d.Better == "higher":
		row.Change = (a.Value - b.Value) / a.Value
	default:
		row.Change = (b.Value - a.Value) / a.Value
	}
	switch {
	case row.Spread > d.Bound && d.Bound > 0:
		row.Verdict = verdictUnresolved
	case row.Change > d.Bound:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictOK
	}
	return row
}

// compareRecords pairs the runs of two records: every bounded end-to-end
// metric of the untraced runs, and every deterministic count of either kind.
func compareRecords(a, b *record) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			ra, rb := a.find(w.name, traced), b.find(w.name, traced)
			if ra == nil || rb == nil {
				continue
			}
			for i := range metricDefs {
				d := &metricDefs[i]
				ma, okA := ra.Metrics[d.Name]
				mb, okB := rb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				bounded := d.Tier != tierLayer && !traced
				if !bounded && !d.Count {
					continue
				}
				row := judge(d, ma, mb, bounded)
				row.Workload = w.name
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func countVerdict(rows []compareRow, v verdict) int {
	n := 0
	for _, r := range rows {
		if r.Verdict == v {
			n++
		}
	}
	return n
}

func printComparison(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-17s %-26s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-26s %14.6g %14.6g %+8.1f%% %6.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Bound, 100*r.Spread, r.Verdict)
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved; counts: %d same, %d differ\n",
		countVerdict(rows, verdictOK), countVerdict(rows, verdictWorse), countVerdict(rows, verdictUnresolved),
		countVerdict(rows, verdictSame), countVerdict(rows, verdictDiffers))
}

// foldAA widens each metric's spread in the first record to the observed
// A/A difference, so the file a later -compare reads knows how far two runs
// of one commit sat apart on this machine. It never narrows one: a pair
// that happens to agree says nothing about a metric its own samples call
// noisy.
func foldAA(first, second *record) {
	for _, ra := range first.Runs {
		rb := second.find(ra.Workload, ra.Traced)
		if rb == nil {
			continue
		}
		for name, ma := range ra.Metrics {
			mb, ok := rb.Metrics[name]
			if !ok {
				continue
			}
			ma.Spread = math.Max(ma.Spread, mb.Spread)
			if mean := (math.Abs(ma.Value) + math.Abs(mb.Value)) / 2; mean > 0 {
				ma.Spread = math.Max(ma.Spread, math.Abs(ma.Value-mb.Value)/mean)
			}
			ra.Metrics[name] = ma
		}
	}
}
