package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"altroute/internal/faultinject"
)

func gridBatch() BatchRequest {
	return BatchRequest{
		ID:                 "drainbatch",
		Rank:               4,
		Seed:               5,
		SourcesPerHospital: 2,
		TimeoutMS:          60_000,
	}
}

func postBatch(t testing.TB, s *Server, req BatchRequest) (int, BatchResponse) {
	t.Helper()
	var raw json.RawMessage
	w := do(t, s, http.MethodPost, "/v1/batch", req, &raw)
	var resp BatchResponse
	if w.Code == http.StatusOK || w.Code == http.StatusServiceUnavailable {
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decode batch response %q: %v", raw, err)
		}
	}
	return w.Code, resp
}

// normalizeTable re-decodes a table JSON document and zeroes the wall-clock
// avg_runtime_s fields, the only legitimately nondeterministic columns, so
// interrupted-and-resumed tables can be compared bit-for-bit against an
// uninterrupted reference.
func normalizeTable(t testing.TB, raw json.RawMessage) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode table: %v", err)
	}
	cells, _ := doc["cells"].([]any)
	for _, c := range cells {
		if cell, ok := c.(map[string]any); ok {
			cell["avg_runtime_s"] = 0.0
		}
	}
	return doc
}

func TestBatchRunsToCompletion(t *testing.T) {
	s := newTestServer(t, nil)
	code, resp := postBatch(t, s, gridBatch())
	if code != http.StatusOK {
		t.Fatalf("batch = %d, want 200", code)
	}
	if resp.Interrupted || resp.Resumable {
		t.Fatalf("clean batch flagged interrupted/resumable: %+v", resp)
	}
	doc := normalizeTable(t, resp.Table)
	if cells, _ := doc["cells"].([]any); len(cells) != 12 {
		t.Fatalf("batch table has %d cells, want 12 (4 algorithms x 3 cost types)", len(doc))
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CheckpointDir = t.TempDir() })
	cases := []struct {
		name string
		mut  func(*BatchRequest)
	}{
		{"rank zero", func(r *BatchRequest) { r.Rank = 0 }},
		{"bad algorithm", func(r *BatchRequest) { r.Algorithms = []string{"Simplex2000"} }},
		{"bad cost type", func(r *BatchRequest) { r.CostTypes = []string{"vibes"} }},
		{"bad weight", func(r *BatchRequest) { r.Weight = "vibes" }},
		{"path traversal id", func(r *BatchRequest) { r.ID = "../../etc/passwd" }},
		{"overlong id", func(r *BatchRequest) { r.ID = strings.Repeat("a", 65) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := gridBatch()
			tc.mut(&req)
			if code, _ := postBatch(t, s, req); code != http.StatusBadRequest {
				t.Fatalf("batch = %d, want 400", code)
			}
		})
	}
}

func TestBatchCheckpointMismatchConflicts(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.CheckpointDir = dir })
	if code, _ := postBatch(t, s, gridBatch()); code != http.StatusOK {
		t.Fatal("seed batch failed")
	}
	// Same id, different seed: the journal must refuse to mix parameters.
	req := gridBatch()
	req.Seed = 99
	code, _ := postBatch(t, s, req)
	if code != http.StatusConflict {
		t.Fatalf("mismatched resume = %d, want 409", code)
	}
}

// TestDrainKillAndResume is the service-level kill-and-resume invariant
// (the ISSUE's acceptance test): SIGTERM-equivalent drain mid-batch leaves
// a valid journal with no torn tail, and re-submitting the batch to a new
// server produces a table bit-identical (runtimes zeroed) to a run that was
// never interrupted.
func TestDrainKillAndResume(t *testing.T) {
	// Reference: the uninterrupted table, with an unarmed injector counting
	// how many attack rounds the whole batch takes.
	refIn := faultinject.New(1)
	ref := newTestServer(t, func(c *Config) { c.Injector = refIn })
	code, refResp := postBatch(t, ref, gridBatch())
	if code != http.StatusOK {
		t.Fatalf("reference batch = %d, want 200", code)
	}
	want := normalizeTable(t, refResp.Table)
	totalRounds := refIn.Hits(faultinject.PointAttackStall)
	if totalRounds < 4 {
		t.Fatalf("reference batch took %d rounds; too few to interrupt meaningfully", totalRounds)
	}

	// Interrupted run: stall the pipeline mid-batch (half the reference
	// round count — deterministic, since the unit schedule is), then drain
	// while it hangs. The stalled unit is cancelled and NOT journaled;
	// completed units are.
	dir := t.TempDir()
	stallIn := faultinject.New(1).Arm(faultinject.PointAttackStall,
		faultinject.Rule{OnHit: totalRounds / 2})
	victim := newTestServer(t, func(c *Config) {
		c.CheckpointDir = dir
		c.Injector = stallIn
	})
	type batchResult struct {
		code int
		resp BatchResponse
	}
	done := make(chan batchResult, 1)
	go func() {
		code, resp := postBatch(t, victim, gridBatch())
		done <- batchResult{code, resp}
	}()
	// The batch is wedged at the stall point; drain must cancel it at unit
	// granularity and flush the journal.
	waitFor(t, func() bool { return stallIn.Hits(faultinject.PointAttackStall) >= totalRounds/2 })
	victim.BeginDrain()
	var res batchResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drained batch never returned")
	}
	if res.code != http.StatusServiceUnavailable {
		t.Fatalf("drained batch = %d, want 503", res.code)
	}
	if !res.resp.Interrupted || !res.resp.Resumable {
		t.Fatalf("drained batch response = %+v, want interrupted+resumable", res.resp)
	}
	if res.resp.Checkpoint != "drainbatch.jsonl" {
		t.Fatalf("checkpoint name = %q", res.resp.Checkpoint)
	}
	// The partial table still lists every requested cell.
	if cells, _ := normalizeTable(t, res.resp.Table)["cells"].([]any); len(cells) != 12 {
		t.Fatalf("drained batch table has %d cells, want 12 (4 algorithms x 3 cost types)", len(cells))
	}
	if err := victim.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain after batch returned: %v", err)
	}

	// The journal is valid line-delimited JSON with no torn tail, and at
	// least one completed unit was persisted before the stall.
	path := filepath.Join(dir, "drainbatch.jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("journal line %d is torn or invalid: %q: %v", lines+1, sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan journal: %v", err)
	}
	if lines < 2 { // header + at least one record
		t.Fatalf("journal has %d lines, want header plus at least one record", lines)
	}

	// Resume on a fresh server over the same checkpoint dir: journaled
	// units replay, the remainder computes, and the merged table is
	// bit-identical to the uninterrupted reference.
	resumed := newTestServer(t, func(c *Config) { c.CheckpointDir = dir })
	code, resResp := postBatch(t, resumed, gridBatch())
	if code != http.StatusOK {
		t.Fatalf("resumed batch = %d, want 200", code)
	}
	if resResp.Interrupted {
		t.Fatalf("resumed batch still interrupted: %+v", resResp)
	}
	got := normalizeTable(t, resResp.Table)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed table differs from uninterrupted reference:\n got: %v\nwant: %v", got, want)
	}
}

func TestBatchDuplicateIDConflicts(t *testing.T) {
	dir := t.TempDir()
	in := faultinject.New(1).Arm(faultinject.PointAttackStall, faultinject.Rule{OnHit: 1})
	s := newTestServer(t, func(c *Config) {
		c.CheckpointDir = dir
		c.Injector = in
	})
	done := make(chan int, 1)
	go func() {
		code, _ := postBatch(t, s, gridBatch())
		done <- code
	}()
	waitFor(t, func() bool { return in.Hits(faultinject.PointAttackStall) >= 1 })

	// The same id while the first submission is live: 409, not a second
	// writer interleaving into the journal.
	if code, _ := postBatch(t, s, gridBatch()); code != http.StatusConflict {
		t.Fatalf("duplicate live batch = %d, want 409", code)
	}

	s.BeginDrain()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled batch never returned")
	}
}
