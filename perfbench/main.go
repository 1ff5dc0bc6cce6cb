// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload at the paper's scale (full-size Chicago and Boston, p* =
// the 100th-shortest path), checks every output it can certify, and prints
// each metric named in BENCHMARK.json with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
// with tracing off; with -trace 1 they are its per_layer list, taken from
// a separate traced run. See README.md for the workloads and the metrics.
//
// Run it through run.sh, which builds cmd/serve and this program first:
//
//	bash perfbench/run.sh --workload serve-cold --seed 3 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
)

// config is the parsed command line.
type config struct {
	root     string // repository root (the checkout)
	serveBin string // built cmd/serve binary
	workload string
	seed     int64
	seconds  int
	trace    bool
	capacity int // -capacity passed to cmd/serve
	maxUnits int // -max-units passed to cmd/serve
	workDir  string
}

// metricSpec is the part of a metric declared in BENCHMARK.json the
// benchmark needs: its name and unit.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricNameRE is the metric-name grammar: a letter or digit, then up to
// 63 letters, digits, '_', '.' or '-'.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// parseMetricName splits a metric name into its dot-separated parts
// (layer, quantity, statistic or load level), rejecting names outside the
// grammar and names with empty parts.
func parseMetricName(name string) ([]string, error) {
	if !metricNameRE.MatchString(name) {
		return nil, fmt.Errorf("metric name %q: want a letter or digit then at most 63 of [A-Za-z0-9_.-]", name)
	}
	parts := strings.Split(name, ".")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("metric name %q has an empty part", name)
		}
	}
	return parts, nil
}

// loadSpec reads BENCHMARK.json and checks every metric name once.
func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if _, err := parseMetricName(m.Name); err != nil {
			return spec, fmt.Errorf("%s: %w", path, err)
		}
		if seen[m.Name] {
			return spec, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		}
		seen[m.Name] = true
	}
	return spec, nil
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is what a workload hands back: the counts, the measured values
// by metric name, the certification verdict, and the per-request or
// per-cell digest lines.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	checkErr          error    // first failed correctness check; nil when all passed
	digest            []string // one canonical line per request or cell
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	cfg.workDir, err = os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	env := recordEnv()
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPU)
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%d trace=%v capacity=%d max-units=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.capacity, cfg.maxUnits)

	var out outcome
	switch cfg.workload {
	case "paper-grid":
		out, err = runGrid(ctx, cfg, stdout)
	case "serve-cold", "serve-hot":
		out, err = runServe(ctx, cfg, stdout)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-grid, serve-cold or serve-hot)\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if out.checkErr == nil {
		out.checkErr = checkDigest(cfg, out.digest, stdout)
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	if out.checkErr != nil {
		// A failed check fails the run: its numbers are not reported.
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", out.checkErr)
		printResult(stdout, res)
		return 1
	}
	for _, m := range declared {
		v, ok := out.values[m.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	printResult(stdout, res)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.serveBin, "serve", "", "cmd/serve binary (built by run.sh)")
	fs.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	fs.IntVar(&cfg.capacity, "capacity", 64, "admission -capacity for cmd/serve")
	fs.IntVar(&cfg.maxUnits, "max-units", 32, "per-request -max-units for cmd/serve")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	case cfg.workload == "":
		return cfg, errors.New("-workload is required")
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return cfg, err
	}
	cfg.root = root
	return cfg, nil
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite value can fail here; print nothing parseable.
		fmt.Fprintln(w, "perfbench: encoding result:", err)
		return
	}
	fmt.Fprintln(w, string(b))
}

// checkDigest hashes the workload's result lines and compares the hash
// with the one an earlier run left in this checkout for the same
// workload, seed, length and mode, built from the same code (the two
// binaries' hash is part of the key): the same code must produce the
// same cuts.
func checkDigest(cfg config, lines []string, stdout io.Writer) error {
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	sum := hex.EncodeToString(h.Sum(nil))
	fmt.Fprintf(stdout, "digest: %s over %d results\n", sum, len(lines))
	build, err := buildID(cfg)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.root, ".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%d-trace%v-%s", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, build))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != sum {
			return fmt.Errorf("result digest %s differs from the earlier run's %s for the same inputs and build", sum, prev)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(sum), 0o644)
	default:
		return err
	}
}

// buildID hashes this program's executable and the cmd/serve binary: Go
// builds are reproducible, so the same source gives the same id.
func buildID(cfg config) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, path := range []string{self, cfg.serveBin} {
		f, err := os.Open(path)
		if err != nil {
			return "", fmt.Errorf("hashing the build: %w", err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("hashing %s: %w", path, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// environment is recorded with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
}

func recordEnv() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
