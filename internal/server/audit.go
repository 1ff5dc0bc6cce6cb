package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"altroute/internal/audit"
	"altroute/internal/experiment"
)

// AuditRef is the ledger receipt attached to audited responses: the
// record's ledger position and chain hash. Clients hold it to later fetch
// (and offline-verify) the record's inclusion proof.
type AuditRef struct {
	Seq  uint64 `json:"seq"`
	Hash string `json:"hash"`
}

// auditAttack records one served /v1/attack outcome — success, cache hit,
// or attack failure — in the ledger. It returns (nil, nil) when auditing
// is disabled; an append error poisons the ledger and the caller refuses
// the response, because an unaudited result must not leave the server.
func (s *Server) auditAttack(city string, req *AttackRequest, key attackKey, out *attackOutcome, cached bool, attackErr error) (*AuditRef, error) {
	if s.ledger == nil {
		return nil, nil
	}
	rec := audit.Record{
		Kind:      "attack",
		City:      city,
		Source:    req.Source,
		Dest:      req.Dest,
		Rank:      req.Rank,
		Algorithm: key.alg.String(),
		Weight:    key.wt.String(),
		Cost:      key.ct.String(),
		Budget:    req.Budget,
		Seed:      req.Seed,
	}
	if attackErr != nil {
		rec.FailKind = failureKind(attackErr)
	} else {
		rec.OK = true
		rec.Algorithm = out.alg.String() // the algorithm that actually ran
		rec.Removed = len(out.res.Removed)
		rec.TotalCost = out.res.TotalCost
		rec.Degraded = out.res.Degraded || out.rerouted
		rec.Cached = cached
	}
	receipt, err := s.ledger.Append(rec)
	if err != nil {
		return nil, err
	}
	return &AuditRef{Seq: receipt.Seq, Hash: receipt.Hash}, nil
}

// auditBatchUnit records one freshly computed batch unit. Append errors
// are not surfaced per unit — the sticky ledger failure is checked once
// when the batch finishes, and poisons the guard for later requests.
func (s *Server) auditBatchUnit(batchID, city string, seed int64, rec experiment.Record) {
	if s.ledger == nil {
		return
	}
	_, _ = s.ledger.Append(audit.Record{
		Kind:      "batch-unit",
		City:      city,
		Algorithm: rec.Algorithm,
		Weight:    rec.Weight,
		Cost:      rec.CostType,
		Seed:      seed,
		Batch:     batchID,
		Unit:      rec.Unit,
		OK:        rec.OK,
		Removed:   rec.Edges,
		TotalCost: rec.Cost,
		Degraded:  rec.Degraded,
		FailKind:  rec.FailKind,
	})
}

// handleAuditProof serves GET /v1/audit/{seq}/proof: the offline-
// verifiable inclusion proof for one sealed ledger record. It bypasses
// the drain gate (history must stay verifiable while the server refuses
// new work) but not refuse mode — a broken chain has no trustworthy
// proofs to serve.
func (s *Server) handleAuditProof(w http.ResponseWriter, r *http.Request) {
	if s.auditErr != nil {
		s.writeError(w, http.StatusServiceUnavailable, "audit_chain_broken", s.auditErr)
		return
	}
	if s.ledger == nil {
		s.writeError(w, http.StatusNotFound, "audit_disabled",
			errors.New("server: auditing is not enabled (start with -audit-dir)"))
		return
	}
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("server: audit seq must be an unsigned integer: %w", err))
		return
	}
	proof, err := s.ledger.Proof(seq)
	switch {
	case errors.Is(err, audit.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "unknown_record", err)
	case errors.Is(err, audit.ErrCompacted):
		// The record existed and was verified, but its batch was compacted
		// into the checkpoint stub — the proof's leaves are gone for good.
		s.writeError(w, http.StatusGone, "compacted", err)
	case errors.Is(err, audit.ErrUnsealed):
		// The record exists but its group commit has not run; it will be
		// provable within the flush interval.
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterS))
		s.writeError(w, http.StatusConflict, "unsealed", err)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "other", err)
	default:
		writeJSON(w, http.StatusOK, proof)
	}
}
