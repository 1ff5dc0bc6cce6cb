package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnaps writes a snapshot-array file and returns its path.
func writeSnaps(t *testing.T, dir, name string, snaps []Snapshot) string {
	t.Helper()
	raw, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLatestResultsPicksNewestPerName(t *testing.T) {
	dir := t.TempDir()
	path := writeSnaps(t, dir, "old.json", []Snapshot{
		{Date: "2026-01-01", Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 100},
			{Name: "BenchmarkB", NsPerOp: 50},
		}},
		{Date: "2026-01-02", Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 80}, // newer snapshot wins
		}},
	})
	latest, err := LatestResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := latest["BenchmarkA"].NsPerOp; got != 80 {
		t.Errorf("BenchmarkA latest ns/op = %v, want 80", got)
	}
	if got := latest["BenchmarkB"].NsPerOp; got != 50 {
		t.Errorf("BenchmarkB latest ns/op = %v, want 50", got)
	}
}

func TestCompareResultsClassification(t *testing.T) {
	oldR := map[string]Result{
		"BenchmarkSteady":  {Name: "BenchmarkSteady", NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkSlower":  {Name: "BenchmarkSlower", NsPerOp: 100},
		"BenchmarkFaster":  {Name: "BenchmarkFaster", NsPerOp: 100},
		"BenchmarkRemoved": {Name: "BenchmarkRemoved", NsPerOp: 100},
	}
	newR := map[string]Result{
		"BenchmarkSteady": {Name: "BenchmarkSteady", NsPerOp: 105, AllocsPerOp: 12},
		"BenchmarkSlower": {Name: "BenchmarkSlower", NsPerOp: 130},
		"BenchmarkFaster": {Name: "BenchmarkFaster", NsPerOp: 40},
		"BenchmarkAdded":  {Name: "BenchmarkAdded", NsPerOp: 7},
	}
	rows := CompareResults(oldR, newR, 15)
	status := map[string]string{}
	for _, r := range rows {
		status[r.Name] = r.Status
	}
	want := map[string]string{
		"BenchmarkSteady":  "ok",
		"BenchmarkSlower":  "regression",
		"BenchmarkFaster":  "improvement",
		"BenchmarkRemoved": "gone",
		"BenchmarkAdded":   "new",
	}
	for name, w := range want {
		if status[name] != w {
			t.Errorf("%s status = %q, want %q", name, status[name], w)
		}
	}
	for _, r := range rows {
		if r.Name == "BenchmarkSteady" {
			if r.NsDeltaPct != 5 {
				t.Errorf("Steady ns delta = %v, want 5", r.NsDeltaPct)
			}
			if r.AllocsDelta != 20 {
				t.Errorf("Steady allocs delta = %v, want 20", r.AllocsDelta)
			}
		}
	}
}

func TestRunCompareExitsNonzeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnaps(t, dir, "old.json", []Snapshot{
		{Results: []Result{{Name: "BenchmarkHot", NsPerOp: 100}}},
	})
	newPath := writeSnaps(t, dir, "new.json", []Snapshot{
		{Results: []Result{{Name: "BenchmarkHot", NsPerOp: 200}}},
	})
	var out strings.Builder
	err := runCompare(oldPath, newPath, 15, &out)
	if err == nil {
		t.Fatalf("want regression error, got nil; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkHot") {
		t.Errorf("error %q does not name the regressed benchmark", err)
	}
	if !strings.Contains(out.String(), "regression") {
		t.Errorf("table does not mark the regression:\n%s", out.String())
	}
}

func TestRunCompareOKWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnaps(t, dir, "old.json", []Snapshot{
		{Results: []Result{{Name: "BenchmarkHot", NsPerOp: 100}}},
	})
	newPath := writeSnaps(t, dir, "new.json", []Snapshot{
		{Results: []Result{{Name: "BenchmarkHot", NsPerOp: 110}}},
	})
	var out strings.Builder
	if err := runCompare(oldPath, newPath, 15, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v\n%s", err, out.String())
	}
}

// TestFoldRepeatsTakesMedian: the N lines of a -count N run become one
// Result with the median ns/op and allocs/op, so a single outlier run —
// here the 900 ns one — cannot move the comparison.
func TestFoldRepeatsTakesMedian(t *testing.T) {
	raw := `BenchmarkHot-2   	     100	       100 ns/op	      16 B/op	       3 allocs/op
BenchmarkCold-2  	       5	      5000 ns/op
BenchmarkHot-2   	     100	       900 ns/op	      16 B/op	       9 allocs/op
BenchmarkHot-2   	     100	       120 ns/op	      16 B/op	       4 allocs/op
`
	parsed, _ := ParseBenchOutput(raw)
	folded := FoldRepeats(parsed)
	if len(folded) != 2 || folded[0].Name != "BenchmarkHot-2" || folded[1].Name != "BenchmarkCold-2" {
		t.Fatalf("folded = %+v, want Hot then Cold", folded)
	}
	hot := folded[0]
	if hot.NsPerOp != 120 || hot.AllocsPerOp != 4 || hot.BytesPerOp != 16 {
		t.Errorf("Hot medians ns/allocs/B = %v/%v/%v, want 120/4/16", hot.NsPerOp, hot.AllocsPerOp, hot.BytesPerOp)
	}
	if hot.Runs != 3 || hot.Iterations != 300 {
		t.Errorf("Hot runs/iterations = %d/%d, want 3/300", hot.Runs, hot.Iterations)
	}
	if folded[1].NsPerOp != 5000 || folded[1].Runs != 0 {
		t.Errorf("single-run Cold changed: %+v", folded[1])
	}

	// LatestResults folds repeats stored unfolded in one snapshot too.
	dir := t.TempDir()
	path := writeSnaps(t, dir, "counted.json", []Snapshot{{Results: parsed}})
	latest, err := LatestResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := latest["BenchmarkHot-2"].NsPerOp; got != 120 {
		t.Errorf("LatestResults Hot ns/op = %v, want the median 120", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}
