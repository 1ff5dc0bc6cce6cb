package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"

	"altroute/internal/audit"
	"altroute/internal/core"
	"altroute/internal/experiment"
	"altroute/internal/faultinject"
	"altroute/internal/roadnet"
)

// BatchRequest is the /v1/batch body: one experiment table (the paper's
// algorithm × cost-type grid) over units sampled deterministically from
// the batch seed. With an ID and a server CheckpointDir, completed units
// are journaled to <dir>/<id>.jsonl — a batch interrupted by a drain
// resumes from the journal when re-submitted with the same parameters.
type BatchRequest struct {
	ID                 string   `json:"id,omitempty"`
	City               string   `json:"city,omitempty"`   // default: the registry's default city
	Weight             string   `json:"weight,omitempty"` // default TIME
	Algorithms         []string `json:"algorithms,omitempty"`
	CostTypes          []string `json:"cost_types,omitempty"`
	Rank               int      `json:"rank"`
	SourcesPerHospital int      `json:"sources_per_hospital,omitempty"`
	Seed               int64    `json:"seed,omitempty"`
	Budget             float64  `json:"budget,omitempty"`
	// TimeoutMS is the per-attack deadline inside the batch (the batch as
	// a whole is bounded by drain and client disconnect, not a deadline).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchResponse is the /v1/batch body on completion or interruption.
type BatchResponse struct {
	// Table is the experiment table in the same JSON shape the CLI
	// exports; partial when Interrupted.
	Table json.RawMessage `json:"table"`
	// Interrupted marks a batch stopped by a drain (or client cancel)
	// before the grid completed.
	Interrupted bool `json:"interrupted,omitempty"`
	// Resumable is set when the completed units are journaled: re-POSTing
	// the same batch replays them and computes only the remainder.
	Resumable bool `json:"resumable,omitempty"`
	// Checkpoint is the journal file name (within the server's checkpoint
	// directory) backing a resumable batch.
	Checkpoint string `json:"checkpoint,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("server: decoding request: %w", err))
		return
	}
	spec, err := s.batchSpec(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	if req.ID != "" && !validBatchID(req.ID) {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			errors.New("server: batch id must match [A-Za-z0-9_-]{1,64}"))
		return
	}

	shard, err := s.shardFor(req.City)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "unknown_city", err)
		return
	}

	// A batch is admitted as one heavy request: its estimated cost is the
	// whole grid, clamped to the budget so it is always admittable and
	// naturally serialized against other heavy work.
	perAttack := EstimateWork(spec.PathRank, shard.Net().NumIntersections(), shard.Net().Graph().NumEdges())
	grid := len(spec.Algorithms) * len(spec.CostTypes) * spec.SourcesPerHospital
	units := min(estimateUnits(perAttack*float64(grid), s.cfg.UnitWork), s.cfg.Capacity)

	// The batch context dies when the client disconnects or the server
	// drains; either way the run stops at unit granularity with its
	// journal flushed.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.drainCtx, func() { cancel(ErrDraining) })
	defer stop()
	ctx = faultinject.With(ctx, s.cfg.Injector)

	if err := s.adm.Acquire(ctx, units); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer s.adm.Release(units)

	var ckptName string
	if s.cfg.CheckpointDir != "" && req.ID != "" {
		if !s.claimBatch(req.ID) {
			s.writeError(w, http.StatusConflict, "batch_active",
				fmt.Errorf("server: batch %q is already running", req.ID))
			return
		}
		defer s.releaseBatch(req.ID)
		ckptName = req.ID + ".jsonl"
		ckpt, err := experiment.OpenCheckpoint(filepath.Join(s.cfg.CheckpointDir, ckptName), experiment.Header{
			Seed:     spec.Seed,
			Scale:    s.cfg.Scale,
			PathRank: spec.PathRank,
			Sources:  spec.SourcesPerHospital,
		})
		if errors.Is(err, experiment.ErrCheckpointMismatch) {
			s.writeError(w, http.StatusConflict, "checkpoint_mismatch", err)
			return
		}
		if errors.Is(err, audit.ErrChainBroken) {
			// The journal's hash chain does not verify: someone altered a
			// completed unit after it was written. Resuming would launder
			// the alteration into served results, so the batch is refused.
			s.writeError(w, http.StatusConflict, "checkpoint_tampered", err)
			return
		}
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "other", err)
			return
		}
		defer ckpt.Close()
		spec.Checkpoint = ckpt
	}

	// Every freshly computed unit is chained into the audit ledger
	// (checkpoint replays were audited when first computed).
	if s.ledger != nil {
		batchID, city, seed := req.ID, shard.Name(), spec.Seed
		spec.Audit = func(rec experiment.Record) { s.auditBatchUnit(batchID, city, seed, rec) }
	}

	// The batch mutates edges transactionally, so it borrows a
	// generation-stamped clone from its city's pool (never the master).
	net, cloneGen := shard.AcquireClone()
	defer shard.ReleaseClone(net, cloneGen)
	units2, err := experiment.SampleUnits(net, *spec)
	if err != nil && (!errors.Is(err, experiment.ErrSampling) || len(units2) == 0) {
		s.writeError(w, http.StatusUnprocessableEntity, "sampling", err)
		return
	}
	table, runErr := experiment.RunTableOnUnitsCtx(ctx, net, units2, *spec)
	if s.ledger != nil {
		if aerr := s.ledger.Err(); aerr != nil {
			// The ledger was poisoned mid-batch: some computed units went
			// unaudited. The results are safe in the checkpoint, but the
			// response is refused — the service does not serve what it
			// cannot account for.
			s.writeError(w, http.StatusServiceUnavailable, "audit_failed", aerr)
			return
		}
	}
	switch {
	case runErr == nil:
		s.writeBatch(w, http.StatusOK, table, BatchResponse{})
	case errors.Is(runErr, experiment.ErrInterrupted):
		// The drain (or the client) stopped the grid. Everything computed
		// so far is in the journal with no torn tail (Append flushes per
		// record), so the batch resumes where it stopped.
		s.writeBatch(w, http.StatusServiceUnavailable, table, BatchResponse{
			Interrupted: true,
			Resumable:   spec.Checkpoint != nil,
			Checkpoint:  ckptName,
		})
	default:
		kind := failureKind(runErr)
		s.writeError(w, statusForKind(kind), kind, runErr)
	}
}

// batchSpec validates and resolves a BatchRequest into an experiment
// Spec. The spec's Net is left nil — the runner gets a pooled clone.
func (s *Server) batchSpec(req *BatchRequest) (*experiment.Spec, error) {
	if req.Rank < 1 {
		return nil, errors.New("server: rank must be >= 1")
	}
	spec := &experiment.Spec{
		Seed:               req.Seed,
		PathRank:           req.Rank,
		SourcesPerHospital: req.SourcesPerHospital,
		Budget:             req.Budget,
		WeightType:         roadnet.WeightTime,
		Options:            core.Options{Timeout: s.timeout(req.TimeoutMS)},
	}
	if req.Weight != "" {
		wt, err := roadnet.ParseWeightType(req.Weight)
		if err != nil {
			return nil, err
		}
		spec.WeightType = wt
	}
	for _, name := range req.Algorithms {
		alg, err := core.ParseAlgorithm(name)
		if err != nil {
			return nil, err
		}
		spec.Algorithms = append(spec.Algorithms, alg)
	}
	for _, name := range req.CostTypes {
		ct, err := roadnet.ParseCostType(name)
		if err != nil {
			return nil, err
		}
		spec.CostTypes = append(spec.CostTypes, ct)
	}
	if spec.SourcesPerHospital <= 0 {
		spec.SourcesPerHospital = 2
	}
	if len(spec.Algorithms) == 0 {
		spec.Algorithms = core.Algorithms()
	}
	if len(spec.CostTypes) == 0 {
		spec.CostTypes = roadnet.CostTypes()
	}
	return spec, nil
}

// writeBatch renders the table into the response envelope.
func (s *Server) writeBatch(w http.ResponseWriter, status int, table experiment.Table, resp BatchResponse) {
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		s.writeError(w, http.StatusInternalServerError, "other", err)
		return
	}
	resp.Table = json.RawMessage(buf.Bytes())
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprint(s.cfg.RetryAfterS))
	}
	writeJSON(w, status, resp)
}

// claimBatch registers an active batch id, refusing duplicates so two
// concurrent submissions cannot interleave writes into one journal.
func (s *Server) claimBatch(id string) bool {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.batches[id] {
		return false
	}
	s.batches[id] = true
	return true
}

func (s *Server) releaseBatch(id string) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	delete(s.batches, id)
}

// validBatchID allows [A-Za-z0-9_-]{1,64}: the id names a file inside the
// checkpoint directory and must not traverse out of it.
func validBatchID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
