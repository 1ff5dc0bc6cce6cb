package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"altroute/internal/audit"
	"altroute/internal/faultinject"
	"altroute/internal/server"
)

// syncWriter is a goroutine-safe capture of run's stdout.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var listenRE = regexp.MustCompile(`serve: listening on (\S+)`)

// startServe launches run() on an ephemeral port and returns the base URL
// and a channel carrying run's return value.
func startServe(t *testing.T, ctx context.Context, extraArgs ...string) (string, <-chan error, *syncWriter) {
	t.Helper()
	out := &syncWriter{}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-city", "boston",
		"-scale", "0.015",
		"-seed", "11",
		"-drain-grace", "30s",
	}, extraArgs...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()

	deadline := time.Now().Add(30 * time.Second) //lint:allow wallclock test polling deadline
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], errc, out
		}
		select {
		case err := <-errc:
			t.Fatalf("run exited before listening: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) { //lint:allow wallclock test polling deadline
			t.Fatalf("server never listened; output: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testBatch() map[string]any {
	return map[string]any{
		"id":                   "sigterm-batch",
		"rank":                 4,
		"seed":                 11,
		"sources_per_hospital": 1,
		"algorithms":           []string{"GreedyPathCover", "GreedyEdge"},
		"timeout_ms":           60_000,
	}
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, out.Bytes()
}

// verifiedRecords runs the -verify-audit subcommand against dir as an
// external oracle and returns the verified record count. Any chain
// violation fails the test.
func verifiedRecords(t *testing.T, dir string) int {
	t.Helper()
	out := &syncWriter{}
	if err := run(context.Background(), []string{"-verify-audit", dir}, out); err != nil {
		t.Fatalf("-verify-audit %s = %v\noutput: %s", dir, err, out.String())
	}
	m := regexp.MustCompile(`verifies: (\d+) records`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("-verify-audit output has no record count: %s", out.String())
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSIGTERMDrainsMidBatchAndResumes is the end-to-end drain scenario:
// SIGTERM while a checkpointed, audited batch is in flight drains
// gracefully (run returns nil — exit 0), leaves a resumable journal and a
// chain-clean ledger, and a restarted server completes the batch from the
// journal with the ledger still verifying. Rotation is forced down to one
// record per segment, so the resume provably crosses segment boundaries.
func TestSIGTERMDrainsMidBatchAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a city and runs a batch; skipped in -short")
	}
	dir := t.TempDir()
	adir := t.TempDir()
	auditFlags := []string{
		"-checkpoint-dir", dir, "-audit-dir", adir,
		"-audit-flush-records", "1", "-audit-rotate-bytes", "1",
	}

	// Wedge the pipeline a few attack rounds in, so SIGTERM provably lands
	// mid-batch rather than racing batch completion.
	in := faultinject.New(1).Arm(faultinject.PointAttackStall, faultinject.Rule{OnHit: 4})
	chaosInjector = in
	defer func() { chaosInjector = nil }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errc, out := startServe(t, ctx, auditFlags...)

	type result struct {
		code int
		body []byte
	}
	batchDone := make(chan result, 1)
	go func() {
		code, body := postJSON(t, base+"/v1/batch", testBatch())
		batchDone <- result{code, body}
	}()

	// Wait until the batch is provably wedged at the stall point, then
	// deliver a real SIGTERM to ourselves.
	waitFor(t, func() bool { return in.Hits(faultinject.PointAttackStall) >= 4 })
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	var res result
	select {
	case res = <-batchDone:
	case <-time.After(60 * time.Second):
		t.Fatal("batch request never returned after SIGTERM")
	}
	if res.code != http.StatusServiceUnavailable {
		t.Fatalf("drained batch = %d, want 503; body %s", res.code, res.body)
	}
	var bres server.BatchResponse
	if err := json.Unmarshal(res.body, &bres); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if !bres.Interrupted || !bres.Resumable {
		t.Fatalf("batch response = %+v, want interrupted+resumable", bres)
	}

	// run() itself must return nil — the process exits 0 after the drain.
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil (exit 0)", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("run never exited after SIGTERM; output: %s", out.String())
	}
	if !strings.Contains(out.String(), "serve: drained, exiting") {
		t.Fatalf("missing drain farewell; output: %s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "sigterm-batch.jsonl")); err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}

	// External oracle: the ledger left behind by the drain verifies. (The
	// stall may land inside the very first unit, so the count can be 0 —
	// what matters is that whatever is there chains cleanly.)
	drained := verifiedRecords(t, adir)

	// Restart against the same checkpoint directory with chaos disarmed:
	// the re-submitted batch replays the journal and completes.
	chaosInjector = nil
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, errc2, _ := startServe(t, ctx2, auditFlags...)
	code, body := postJSON(t, base2+"/v1/batch", testBatch())
	if code != http.StatusOK {
		t.Fatalf("resumed batch = %d, want 200; body %s", code, body)
	}
	var resumed server.BatchResponse
	if err := json.Unmarshal(body, &resumed); err != nil {
		t.Fatalf("decode resumed response: %v", err)
	}
	if resumed.Interrupted {
		t.Fatalf("resumed batch still interrupted: %+v", resumed)
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second run exit = %v, want nil", err)
	}

	// The oracle again: the resumed run extended the same chain — journal
	// replays were not re-audited, so growth is only the remainder.
	after := verifiedRecords(t, adir)
	if after <= drained {
		t.Fatalf("ledger did not grow across the resume: %d then %d", drained, after)
	}

	// With one record per segment, the resumed chain spans one sealed
	// segment per record: the drain and resume provably crossed segment
	// boundaries.
	segs, err := filepath.Glob(filepath.Join(adir, "segment-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("resumed ledger has %d segments, want at least 3 (records: %d)", len(segs), after)
	}
}

// TestVerifyAuditDetectsTamper pins the -verify-audit exit contract: a
// clean ledger verifies with its record count; a single flipped byte
// makes the subcommand return an error (exit 1) naming the chain break.
func TestVerifyAuditDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	l, err := audit.Open(audit.Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(audit.Record{Kind: "attack", City: "boston", Source: int64(i), Dest: 9, OK: true}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := verifiedRecords(t, dir); n != 3 {
		t.Fatalf("verified %d records, want 3", n)
	}

	path := filepath.Join(dir, "ledger.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[25] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := &syncWriter{}
	err = run(context.Background(), []string{"-verify-audit", dir}, out)
	if !errors.Is(err, audit.ErrChainBroken) {
		t.Fatalf("-verify-audit over tampered ledger = %v, want ErrChainBroken", err)
	}
	var ce *audit.ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("error does not name the broken record: %v", err)
	}
}

func TestServeHealthAndCleanShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a city; skipped in -short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errc, out := startServe(t, ctx)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run = %v, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("run never exited; output: %s", out.String())
	}
}

func TestServeBadFlags(t *testing.T) {
	cases := [][]string{
		{"-city", "atlantis"},
		{"-addr", "not-an-address"},
		{"-osm", "/nonexistent/extract.osm"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &syncWriter{}); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
}

// TestVerifyAuditNothingToVerify pins the empty-state contract: pointing
// -verify-audit at a directory with no ledger (fresh, or the wrong one) is
// its own outcome — exit 2 with a message saying so — distinct from both
// a clean chain (0) and a violation (1).
func TestVerifyAuditNothingToVerify(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "never-created")} {
		out := &syncWriter{}
		err := run(context.Background(), []string{"-verify-audit", dir}, out)
		if !errors.Is(err, audit.ErrNoLedger) {
			t.Fatalf("-verify-audit %s = %v, want ErrNoLedger", dir, err)
		}
		if !strings.Contains(err.Error(), "nothing to verify") {
			t.Fatalf("error does not explain itself: %v", err)
		}
		if c := exitCode(err); c != 2 {
			t.Fatalf("exit code = %d, want 2", c)
		}
	}
}

// TestExitCodes pins the process exit mapping run's error lands in.
func TestExitCodes(t *testing.T) {
	if c := exitCode(nil); c != 0 {
		t.Fatalf("exitCode(nil) = %d", c)
	}
	if c := exitCode(errors.New("boom")); c != 1 {
		t.Fatalf("exitCode(error) = %d", c)
	}
	if c := exitCode(fmt.Errorf("wrapped: %w", audit.ErrNoLedger)); c != 2 {
		t.Fatalf("exitCode(ErrNoLedger) = %d", c)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second) //lint:allow wallclock test polling deadline
	for !cond() {
		if time.Now().After(deadline) { //lint:allow wallclock test polling deadline
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
