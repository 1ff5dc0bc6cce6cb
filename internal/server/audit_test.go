package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"altroute/internal/audit"
	"altroute/internal/faultinject"
)

// auditedServer builds a test server with the ledger enabled and the
// group-commit timer effectively disabled, so tests seal explicitly.
func auditedServer(t testing.TB, dir string, mutate func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.AuditDir = dir
		c.AuditFlushEvery = time.Hour
		c.AuditFlushRecords = 1 << 20
		if mutate != nil {
			mutate(c)
		}
	})
}

func TestAuditRecordOnServeAndProof(t *testing.T) {
	dir := t.TempDir()
	s := auditedServer(t, dir, nil)
	defer s.Ledger().Close()

	// A computed result carries a receipt.
	w, resp, _ := postAttack(t, s, gridAttack())
	if w.Code != http.StatusOK {
		t.Fatalf("attack: %d %s", w.Code, w.Body.String())
	}
	if resp.Audit == nil || resp.Audit.Seq != 0 || resp.Audit.Hash == "" {
		t.Fatalf("audit ref = %+v, want seq 0 with a hash", resp.Audit)
	}

	// A cache hit is a served result too: new receipt, Cached flag in the
	// ledger record.
	_, resp2, _ := postAttack(t, s, gridAttack())
	if !resp2.Cached {
		t.Fatal("second identical attack should be cached")
	}
	if resp2.Audit == nil || resp2.Audit.Seq != 1 {
		t.Fatalf("cached audit ref = %+v, want seq 1", resp2.Audit)
	}
	rec, ok := s.Ledger().Record(1)
	if !ok || !rec.Cached || !rec.OK || rec.Kind != "attack" {
		t.Fatalf("ledger record 1 = %+v, %v", rec, ok)
	}

	// A failed attack (rank beyond the path set) is audited with its kind.
	bad := gridAttack()
	bad.Rank = 4000
	if w, _, errResp := postAttack(t, s, bad); w.Code != http.StatusUnprocessableEntity || errResp.Kind != "rank" {
		t.Fatalf("rank failure: %d kind %q", w.Code, errResp.Kind)
	}
	rec, ok = s.Ledger().Record(2)
	if !ok || rec.OK || rec.FailKind != "rank" {
		t.Fatalf("ledger record 2 = %+v, %v, want fail_kind rank", rec, ok)
	}

	// Seal, then fetch and offline-verify the proof for the first result.
	if err := s.Ledger().Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var proof audit.Proof
	if w := do(t, s, http.MethodGet, "/v1/audit/0/proof", nil, &proof); w.Code != http.StatusOK {
		t.Fatalf("proof: %d %s", w.Code, w.Body.String())
	}
	if err := audit.VerifyProof(proof); err != nil {
		t.Fatalf("VerifyProof: %v", err)
	}
	if proof.Record.Hash != resp.Audit.Hash {
		t.Fatalf("proof record hash %s, receipt hash %s", proof.Record.Hash, resp.Audit.Hash)
	}
	if proof.Record.Source != 0 || proof.Record.Dest != 15 || proof.Record.Rank != 4 {
		t.Fatalf("proof carries wrong record: %+v", proof.Record)
	}

	// The on-disk chain verifies end to end.
	if _, err := audit.VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

func TestAuditProofUnsealedUnknownAndDisabled(t *testing.T) {
	s := auditedServer(t, t.TempDir(), nil)
	defer s.Ledger().Close()
	if w, _, _ := postAttack(t, s, gridAttack()); w.Code != http.StatusOK {
		t.Fatalf("attack: %d", w.Code)
	}

	var errResp ErrorResponse
	w := do(t, s, http.MethodGet, "/v1/audit/0/proof", nil, &errResp)
	if w.Code != http.StatusConflict || errResp.Kind != "unsealed" {
		t.Fatalf("pending proof: %d kind %q, want 409 unsealed", w.Code, errResp.Kind)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("unsealed proof response carries no Retry-After")
	}
	if w := do(t, s, http.MethodGet, "/v1/audit/99/proof", nil, &errResp); w.Code != http.StatusNotFound || errResp.Kind != "unknown_record" {
		t.Fatalf("unknown proof: %d kind %q", w.Code, errResp.Kind)
	}
	if w := do(t, s, http.MethodGet, "/v1/audit/bogus/proof", nil, &errResp); w.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric seq: %d", w.Code)
	}

	// Without -audit-dir the endpoint explains itself.
	plain := newTestServer(t, nil)
	if w := do(t, plain, http.MethodGet, "/v1/audit/0/proof", nil, &errResp); w.Code != http.StatusNotFound || errResp.Kind != "audit_disabled" {
		t.Fatalf("disabled proof: %d kind %q", w.Code, errResp.Kind)
	}
	if _, resp, _ := postAttack(t, plain, gridAttack()); resp.Audit != nil {
		t.Fatal("un-audited server attached an audit ref")
	}
}

// TestAuditChainBrokenRefusal tampers with a sealed ledger record on disk
// and restarts the server over it: the server must come up in refuse mode
// — health explains, readyz fails, every work request is 503.
func TestAuditChainBrokenRefusal(t *testing.T) {
	dir := t.TempDir()
	s := auditedServer(t, dir, nil)
	if w, _, _ := postAttack(t, s, gridAttack()); w.Code != http.StatusOK {
		t.Fatalf("attack: %d", w.Code)
	}
	if err := s.Ledger().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	path := filepath.Join(dir, "ledger.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := auditedServer(t, dir, nil) // constructs despite the broken chain
	if s2.Ledger() != nil {
		t.Fatal("refuse-mode server exposes a ledger")
	}
	w, _, errResp := postAttack(t, s2, gridAttack())
	if w.Code != http.StatusServiceUnavailable || errResp.Kind != "audit_chain_broken" {
		t.Fatalf("attack over broken chain: %d kind %q", w.Code, errResp.Kind)
	}
	var raw json.RawMessage
	if w := do(t, s2, http.MethodPost, "/v1/batch", BatchRequest{Rank: 3, SourcesPerHospital: 1}, &raw); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch over broken chain: %d", w.Code)
	}
	var ready readyzResponse
	if w := do(t, s2, http.MethodGet, "/readyz", nil, &ready); w.Code != http.StatusServiceUnavailable || ready.Audit != "audit_chain_broken" {
		t.Fatalf("readyz: %d audit %q", w.Code, ready.Audit)
	}
	var health healthzResponse
	if w := do(t, s2, http.MethodGet, "/healthz", nil, &health); w.Code != http.StatusOK || health.Audit == nil || health.Audit.Error == "" {
		t.Fatalf("healthz must stay live and explain: %d %+v", w.Code, health.Audit)
	}
	if w := do(t, s2, http.MethodGet, "/v1/audit/0/proof", nil, &errResp); w.Code != http.StatusServiceUnavailable || errResp.Kind != "audit_chain_broken" {
		t.Fatalf("proof over broken chain: %d kind %q", w.Code, errResp.Kind)
	}
}

// TestAuditWriteFaultFailsClosed poisons the ledger with an injected
// write fault mid-serve: the response that could not be audited is
// refused, and so is everything after it until restart.
func TestAuditWriteFaultFailsClosed(t *testing.T) {
	inj := faultinject.New(1).Arm(faultinject.PointAuditWrite, faultinject.Rule{OnHit: 1})
	s := auditedServer(t, t.TempDir(), func(c *Config) { c.Injector = inj })

	w, _, errResp := postAttack(t, s, gridAttack())
	if w.Code != http.StatusServiceUnavailable || errResp.Kind != "audit_failed" {
		t.Fatalf("unauditable attack: %d kind %q", w.Code, errResp.Kind)
	}
	// Sticky: the guard refuses before any work happens.
	if w, _, errResp := postAttack(t, s, gridAttack()); w.Code != http.StatusServiceUnavailable || errResp.Kind != "audit_failed" {
		t.Fatalf("attack after poison: %d kind %q", w.Code, errResp.Kind)
	}
	var ready readyzResponse
	if w := do(t, s, http.MethodGet, "/readyz", nil, &ready); w.Code != http.StatusServiceUnavailable || ready.Audit != "audit_failed" {
		t.Fatalf("readyz after poison: %d audit %q", w.Code, ready.Audit)
	}
}

// TestBatchUnitsAudited runs a small batch and checks every computed unit
// landed in the ledger — and that a checkpoint replay does not re-audit.
func TestBatchUnitsAudited(t *testing.T) {
	dir := t.TempDir()
	s := auditedServer(t, dir, func(c *Config) { c.CheckpointDir = t.TempDir() })
	defer s.Ledger().Close()

	req := BatchRequest{ID: "auditbatch", Rank: 3, SourcesPerHospital: 1, Seed: 5, Algorithms: []string{"GreedyEdge"}, CostTypes: []string{"UNIFORM"}}
	var raw json.RawMessage
	if w := do(t, s, http.MethodPost, "/v1/batch", req, &raw); w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, raw)
	}
	seq, _ := s.Ledger().Head()
	if seq == 0 {
		t.Fatal("batch audited no units")
	}
	rec, ok := s.Ledger().Record(0)
	if !ok || rec.Kind != "batch-unit" || rec.Batch != "auditbatch" || rec.Algorithm != "GreedyEdge" {
		t.Fatalf("ledger record 0 = %+v, %v", rec, ok)
	}

	// Re-POST: every unit replays from the checkpoint; nothing new is
	// audited (those units were audited when first computed).
	if w := do(t, s, http.MethodPost, "/v1/batch", req, &raw); w.Code != http.StatusOK {
		t.Fatalf("batch replay: %d", w.Code)
	}
	if seq2, _ := s.Ledger().Head(); seq2 != seq {
		t.Fatalf("replayed batch appended %d new audit records", seq2-seq)
	}
	if err := s.Ledger().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := audit.VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestHealthzLedgerStats pins the operator-facing counters: appends,
// fsyncs, their coalescing ratio, and chain heads.
func TestHealthzLedgerStats(t *testing.T) {
	s := auditedServer(t, t.TempDir(), nil)
	defer s.Ledger().Close()
	for i := 0; i < 3; i++ {
		req := gridAttack()
		req.Seed = int64(i) // distinct keys: three computed results
		if w, _, _ := postAttack(t, s, req); w.Code != http.StatusOK {
			t.Fatalf("attack %d failed", i)
		}
	}
	if err := s.Ledger().Flush(); err != nil {
		t.Fatal(err)
	}
	var health healthzResponse
	if w := do(t, s, http.MethodGet, "/healthz", nil, &health); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	st := health.Audit
	if st == nil {
		t.Fatal("healthz has no audit stats")
	}
	if st.Records != 3 || st.Appended != 3 || st.Fsyncs != 1 || st.RecordsPerFsync != 3 {
		t.Fatalf("audit stats = %+v", st)
	}
	if st.RecordHead == "" || st.SealHead == "" || st.SealedBatches != 1 || st.Pending != 0 {
		t.Fatalf("audit chain stats = %+v", st)
	}
}

// TestAuditProofCompactedGoneAndHealthzSegments rotates the ledger under
// real traffic, compacts, and pins the operator-facing contract: proofs in
// the compacted range answer 410 Gone, live proofs keep serving, and
// healthz reports the segment and compaction bounds.
func TestAuditProofCompactedGoneAndHealthzSegments(t *testing.T) {
	s := auditedServer(t, t.TempDir(), func(c *Config) {
		c.AuditFlushRecords = 2
		c.AuditRotateBytes = 1
	})
	defer s.Ledger().Close()
	for i := 0; i < 8; i++ {
		req := gridAttack()
		req.Seed = int64(i)
		if w, _, _ := postAttack(t, s, req); w.Code != http.StatusOK {
			t.Fatalf("attack %d failed", i)
		}
	}
	// Seal any tail the background supervisor's kicks left pending — the
	// exact batch boundaries depend on supervisor timing, but after a
	// flush every record is sealed and (with RotateBytes 1) rotated.
	if err := s.Ledger().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Ledger().Compact(1); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	var errResp ErrorResponse
	if w := do(t, s, http.MethodGet, "/v1/audit/0/proof", nil, &errResp); w.Code != http.StatusGone || errResp.Kind != "compacted" {
		t.Fatalf("compacted proof: %d kind %q, want 410 compacted", w.Code, errResp.Kind)
	}
	var proof audit.Proof
	if w := do(t, s, http.MethodGet, "/v1/audit/7/proof", nil, &proof); w.Code != http.StatusOK {
		t.Fatalf("live proof: %d %s", w.Code, w.Body.String())
	}
	if err := audit.VerifyProof(proof); err != nil {
		t.Fatalf("VerifyProof: %v", err)
	}

	var health healthzResponse
	if w := do(t, s, http.MethodGet, "/healthz", nil, &health); w.Code != http.StatusOK || health.Audit == nil {
		t.Fatalf("healthz: %d", w.Code)
	}
	st := health.Audit
	if st.Segments != 1 || st.CompactedSegments == 0 || st.CompactedRecords == 0 || st.Rotations < 2 {
		t.Fatalf("healthz segment stats = %+v", st)
	}
}
