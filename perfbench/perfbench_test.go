package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	a := stratifiedSchedule(rand.New(rand.NewSource(7)), 12, 5*time.Second)
	b := stratifiedSchedule(rand.New(rand.NewSource(7)), 12, 5*time.Second)
	c := stratifiedSchedule(rand.New(rand.NewSource(8)), 12, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 60 || len(c) != 60 {
		t.Fatalf("got %d and %d arrivals, want rate*duration = 60", len(a), len(c))
	}
	slot := 5 * time.Second / 60
	for i, off := range a {
		if lo := time.Duration(i) * slot; off < lo || off >= lo+slot {
			t.Fatalf("offset %d = %v is outside its slot [%v, %v)", i, off, lo, lo+slot)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64 // quantile reported for a p95 request
	}{
		{20, 0.5},    // index 9 leaves 10 above it
		{100, 0.9},   // p95 would leave 5; p90 leaves 10
		{200, 0.95},  // p95 leaves exactly 10
		{1000, 0.95}, // plenty
		{119, 109.0 / 119},
	} {
		s := make(sample, tc.n)
		for i := range s {
			s[tc.n-1-i] = float64(i) // reversed, so tail must sort
		}
		v, q, err := s.tail(0.95)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported p%.1f, want at least %d", tc.n, beyond, 100*q, minBeyond)
		}
		if q != tc.wantQ { //lint:allow floateq exact nearest-rank fractions
			t.Errorf("n=%d: reported quantile %v, want %v", tc.n, q, tc.wantQ)
		}
	}
	if _, _, err := make(sample, 19).tail(0.95); err == nil {
		t.Error("19 samples gave a tail, want an error: any tail would sit below the median")
	}
}

func TestMedianIsNearestRank(t *testing.T) {
	if got := (sample{5, 1, 4, 2, 3}).median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2 {
		t.Errorf("median of four = %v, want the nearest-rank 2", got)
	}
}

func TestGeomean(t *testing.T) {
	got, err := (sample{16, 1, 4}).geomean()
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(16, 1, 4) = %v, %v; want 4", got, err)
	}
	for _, s := range []sample{nil, {3, 0, 2}, {3, -1}} {
		if _, err := s.geomean(); err == nil {
			t.Errorf("geomean(%v) gave no error", s)
		}
	}
}

func TestParseMetricName(t *testing.T) {
	good := map[string][]string{
		"setup_s":                   {"setup_s"},
		"p95_ms.mid":                {"p95_ms", "mid"},
		"core.LP-PathCover.ms.p50":  {"core", "LP-PathCover", "ms", "p50"},
		"audit.records_per_fsync":   {"audit", "records_per_fsync"},
		"1abc":                      {"1abc"},
		"graph.yen_ms.p95":          {"graph", "yen_ms", "p95"},
		"trace.unaccounted_share":   {"trace", "unaccounted_share"},
		"registry.result_hit_ratio": {"registry", "result_hit_ratio"},
	}
	for name, want := range good {
		got, err := parseMetricName(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseMetricName(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, bad := range []string{"", ".a", "_a", "a..b", "a.", "a b", "a/b", "é", string(make([]byte, 65))} {
		if _, err := parseMetricName(bad); err == nil {
			t.Errorf("parseMetricName(%q) accepted a malformed name", bad)
		}
	}
}

// TestBenchmarkSpecNamesEveryMetric checks BENCHMARK.json against the
// program: every declared name parses, and the per-layer list is exactly
// what the traced modes fill.
func TestBenchmarkSpecNamesEveryMetric(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	filled := map[string]bool{}
	for _, name := range perLayerNames() {
		filled[name] = true
		if !declared[name] {
			t.Errorf("traced modes fill %s, which BENCHMARK.json does not declare", name)
		}
	}
	for name := range declared {
		if !filled[name] {
			t.Errorf("BENCHMARK.json declares per-layer %s, which no traced mode fills", name)
		}
	}
	if len(spec.EndToEnd) == 0 {
		t.Error("BENCHMARK.json declares no end-to-end metrics")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "request", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "core.GreedyEdge", Parent: 0, Start: 10, End: 70},
		{ID: 2, Name: "audit.Ledger.Append", Parent: 0, Start: 70, End: 80},
	}
	got := selfTimes(spans)
	want := []time.Duration{30, 60, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
