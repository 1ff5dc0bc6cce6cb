// Command bench runs the repository's Benchmark* suite through `go test`
// and appends a machine-readable snapshot to a BENCH_<date>.json file, so
// the repo accumulates a performance trajectory that future changes can be
// compared against.
//
// Typical usage from the repository root:
//
//	go run ./cmd/bench -bench 'Yen|Dijkstra' -label after-astar
//	go run ./cmd/bench -bench BenchmarkTableII -benchtime 3x
//	go run ./cmd/bench -compare BENCH_2026-07-01.json BENCH_2026-08-07.json
//
// -compare diffs the latest result per benchmark between two snapshot
// files (ns/op and allocs/op deltas) and exits nonzero when any ns/op
// regression exceeds -threshold percent (default 15), so CI can gate or
// warn on committed baselines. With -count N the N lines go test prints
// per benchmark are stored as one result holding their medians.
//
// Each invocation appends one snapshot (an entry in the file's JSON array)
// recording go/test environment, the benchmark filter, and per-benchmark
// ns/op, B/op, allocs/op, and any custom metrics (ANER, ACRE, ...). The
// output file is BENCH_<YYYY-MM-DD>.json in -out (default "."), one file
// per day, many snapshots per file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Snapshot is one bench run: environment plus per-benchmark results.
type Snapshot struct {
	Date      string   `json:"date"`
	Label     string   `json:"label,omitempty"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPU       string   `json:"cpu,omitempty"`
	Package   string   `json:"package,omitempty"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name including the -cpus suffix go test adds.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp, and AllocsPerOp mirror go test's standard
	// columns; BytesPerOp/AllocsPerOp are 0 when -benchmem metrics were
	// not reported for the line.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any custom b.ReportMetric values (ANER, ACRE, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs is the number of `-count` repeats folded into this Result
	// (medians, see FoldRepeats); 0 for a single run.
	Runs int `json:"runs,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", ".", "benchmark regexp passed to go test -bench")
		benchtime = fs.String("benchtime", "3x", "go test -benchtime value")
		count     = fs.Int("count", 1, "go test -count value")
		pkg       = fs.String("pkg", ".", "package pattern to benchmark")
		outDir    = fs.String("out", ".", "directory for the BENCH_<date>.json file")
		label     = fs.String("label", "", "free-form label stored with the snapshot")
		date      = fs.String("date", "", "override snapshot date (YYYY-MM-DD; default today)")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit (passed through to go test)")
		compare   = fs.Bool("compare", false, "compare two snapshot files (old.json new.json) instead of running benchmarks; exits nonzero on regression")
		threshold = fs.Float64("threshold", 15, "with -compare: ns/op regression tolerance in percent")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		rest := fs.Args()
		if len(rest) != 2 {
			return fmt.Errorf("-compare wants exactly two files: old.json new.json")
		}
		return runCompare(rest[0], rest[1], *threshold, stdout)
	}

	cmd := exec.Command("go", goTestArgs(*bench, *benchtime, *count, *memProf, *pkg)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	fmt.Fprint(stdout, string(raw))
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}

	results, cpu := ParseBenchOutput(string(raw))
	results = FoldRepeats(results)
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", *bench)
	}
	day := *date
	if day == "" {
		day = time.Now().Format("2006-01-02") //lint:allow wallclock snapshot date stamp, not part of any measured result
	}
	snap := Snapshot{
		Date:      day,
		Label:     *label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPU:       cpu,
		Package:   *pkg,
		Bench:     *bench,
		Benchtime: *benchtime,
		Results:   results,
	}
	path := filepath.Join(*outDir, "BENCH_"+day+".json")
	if err := AppendSnapshot(path, snap); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "appended %d results to %s\n", len(results), path)
	return nil
}

// goTestArgs builds the `go test` invocation. The heap profile flag is
// forwarded verbatim: go test writes the profile itself after the benchmark
// run, the same file cmd/experiment's -memprofile produces for table runs.
func goTestArgs(bench, benchtime string, count int, memProfile, pkg string) []string {
	args := []string{"test", "-run", "^$",
		"-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}
	if memProfile != "" {
		args = append(args, "-memprofile", memProfile)
	}
	return append(args, pkg)
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)((?:\s+[0-9.eE+-]+\s+\S+)+)\s*$`)

// ParseBenchOutput extracts benchmark results and the reported cpu model
// from standard `go test -bench` output.
func ParseBenchOutput(out string) ([]Result, string) {
	var results []Result
	cpu := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimRight(line, "\r")
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: n}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "MB/s":
				// throughput column: store as a metric
				fallthrough
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	return results, cpu
}

// AppendSnapshot appends snap to the JSON array in path, creating the file
// when absent.
func AppendSnapshot(path string, snap Snapshot) error {
	var snaps []Snapshot
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &snaps); err != nil {
			return fmt.Errorf("%s: existing file is not a snapshot array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	snaps = append(snaps, snap)
	raw, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
