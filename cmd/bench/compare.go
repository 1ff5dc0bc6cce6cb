package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CompareRow is one benchmark's old-vs-new delta.
type CompareRow struct {
	Name        string
	OldNs       float64
	NewNs       float64
	NsDeltaPct  float64
	OldAllocs   float64
	NewAllocs   float64
	AllocsDelta float64
	// Status is "ok", "regression", "improvement", "new" (no old entry),
	// or "gone" (no new entry).
	Status string
}

// LatestResults reads a BENCH_*.json snapshot array and returns the most
// recent Result per benchmark name (later snapshots win). Within one
// snapshot, repeated lines of a benchmark (a `-count N` run) count as one
// Result holding their medians (see FoldRepeats).
func LatestResults(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snaps []Snapshot
	if err := json.Unmarshal(raw, &snaps); err != nil {
		return nil, fmt.Errorf("%s: not a snapshot array: %w", path, err)
	}
	latest := make(map[string]Result)
	for _, s := range snaps {
		for _, r := range FoldRepeats(s.Results) {
			latest[r.Name] = r
		}
	}
	return latest, nil
}

// FoldRepeats merges the results that share a name — the N lines of a
// `go test -count N` run — into one Result per name, in first-seen order.
// The merged Result holds the median ns/op, B/op, allocs/op and custom
// metrics of the repeats, the summed iterations, and Runs = N, so one
// noisy run can no longer decide a comparison.
func FoldRepeats(results []Result) []Result {
	groups := make(map[string][]Result, len(results))
	var order []string
	for _, r := range results {
		if _, ok := groups[r.Name]; !ok {
			order = append(order, r.Name)
		}
		groups[r.Name] = append(groups[r.Name], r)
	}
	folded := make([]Result, 0, len(order))
	for _, name := range order {
		rs := groups[name]
		if len(rs) == 1 {
			folded = append(folded, rs[0])
			continue
		}
		m := Result{Name: name, Runs: len(rs)}
		pick := func(field func(Result) float64) float64 {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = field(r)
			}
			return median(xs)
		}
		m.NsPerOp = pick(func(r Result) float64 { return r.NsPerOp })
		m.BytesPerOp = pick(func(r Result) float64 { return r.BytesPerOp })
		m.AllocsPerOp = pick(func(r Result) float64 { return r.AllocsPerOp })
		for _, r := range rs {
			m.Iterations += r.Iterations
			for k := range r.Metrics {
				if _, done := m.Metrics[k]; done {
					continue
				}
				if m.Metrics == nil {
					m.Metrics = map[string]float64{}
				}
				m.Metrics[k] = pick(func(r Result) float64 { return r.Metrics[k] })
			}
		}
		folded = append(folded, m)
	}
	return folded
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// CompareResults diffs two latest-result maps. thresholdPct is the ns/op
// regression tolerance in percent; rows past it are marked "regression".
func CompareResults(oldR, newR map[string]Result, thresholdPct float64) []CompareRow {
	names := make(map[string]bool, len(oldR)+len(newR))
	for n := range oldR {
		names[n] = true
	}
	for n := range newR {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	rows := make([]CompareRow, 0, len(ordered))
	for _, name := range ordered {
		o, haveOld := oldR[name]
		n, haveNew := newR[name]
		row := CompareRow{Name: name}
		switch {
		case !haveOld:
			row.NewNs, row.NewAllocs = n.NsPerOp, n.AllocsPerOp
			row.Status = "new"
		case !haveNew:
			row.OldNs, row.OldAllocs = o.NsPerOp, o.AllocsPerOp
			row.Status = "gone"
		default:
			row.OldNs, row.NewNs = o.NsPerOp, n.NsPerOp
			row.OldAllocs, row.NewAllocs = o.AllocsPerOp, n.AllocsPerOp
			if o.NsPerOp > 0 {
				row.NsDeltaPct = 100 * (n.NsPerOp - o.NsPerOp) / o.NsPerOp
			}
			if o.AllocsPerOp > 0 {
				row.AllocsDelta = 100 * (n.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp
			}
			switch {
			case row.NsDeltaPct > thresholdPct:
				row.Status = "regression"
			case row.NsDeltaPct < -thresholdPct:
				row.Status = "improvement"
			default:
				row.Status = "ok"
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteCompareTable renders the rows and returns the regressed benchmark
// names (ns/op past the threshold).
func WriteCompareTable(w io.Writer, rows []CompareRow) []string {
	fmt.Fprintf(w, "%-52s %14s %14s %9s %9s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs Δ", "status")
	var regressed []string
	for _, r := range rows {
		old, nw, delta, allocs := "-", "-", "-", "-"
		if r.Status != "new" {
			old = fmt.Sprintf("%.0f", r.OldNs)
		}
		if r.Status != "gone" {
			nw = fmt.Sprintf("%.0f", r.NewNs)
		}
		if r.Status != "new" && r.Status != "gone" {
			delta = fmt.Sprintf("%+.1f%%", r.NsDeltaPct)
			allocs = fmt.Sprintf("%+.1f%%", r.AllocsDelta)
		}
		fmt.Fprintf(w, "%-52s %14s %14s %9s %9s %12s\n",
			r.Name, old, nw, delta, allocs, r.Status)
		if r.Status == "regression" {
			regressed = append(regressed, r.Name)
		}
	}
	return regressed
}

// runCompare implements `bench -compare old.json new.json`: diff the
// latest results per benchmark and fail (nonzero exit) when any ns/op
// regression exceeds thresholdPct.
func runCompare(oldPath, newPath string, thresholdPct float64, stdout io.Writer) error {
	oldR, err := LatestResults(oldPath)
	if err != nil {
		return err
	}
	newR, err := LatestResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "comparing %s -> %s (threshold %.0f%%)\n",
		filepath.Base(oldPath), filepath.Base(newPath), thresholdPct)
	regressed := WriteCompareTable(stdout, CompareResults(oldR, newR, thresholdPct))
	if len(regressed) > 0 {
		return fmt.Errorf("ns/op regression past %.0f%% in: %s",
			thresholdPct, strings.Join(regressed, ", "))
	}
	return nil
}
