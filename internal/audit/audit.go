// Package audit provides a tamper-evident ledger for served attack
// results. Every result the service emits is a security-sensitive
// artifact — the paper's premise is that alternative-route attacks are
// cheap to mount and hard to observe, so a trustworthy record of what was
// computed, for whom, and when is the substrate any detection or forensic
// work stands on.
//
// The ledger is an append-only JSONL file with two line kinds:
//
//   - record lines: one per served result, hash-chained — each record
//     carries the SHA-256 of the previous record (Prev) and of itself
//     (Hash, computed with the field blanked), so altering, reordering,
//     or deleting an interior record breaks every hash after it;
//   - seal lines: one per group-commit batch — the records since the
//     previous seal fold into a Merkle root, and seals form their own
//     hash chain. A seal is the ledger's durability and proof unit: the
//     file is fsynced once per seal, not once per record, which is what
//     keeps the ledger off the request hot path.
//
// Sealed records have offline-verifiable inclusion proofs (Proof /
// VerifyProof): the leaf path to the batch root plus the seal's chain
// position. What tampering is detectable: any bit flip in a sealed record
// or seal, any interior deletion or reordering, and truncation of sealed
// history. What is not: dropping the unsealed tail (records appended
// after the last seal), which is exactly the window a crash may lose —
// the two are indistinguishable by design, and the group-commit bounds
// that window by time and record count.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrChainBroken reports an integrity violation: a record or seal whose
// hash, chain link, or Merkle root does not verify. A ledger directory
// whose chain is broken must be treated as tampered; the service refuses
// to serve over it.
var ErrChainBroken = errors.New("audit: hash chain broken")

// ErrNotFound is returned by Proof for a sequence number the ledger has
// never assigned.
var ErrNotFound = errors.New("audit: no such record")

// ErrUnsealed is returned by Proof for a record that exists but whose
// batch has not been sealed yet — it has no Merkle proof until the next
// group-commit flush.
var ErrUnsealed = errors.New("audit: record not sealed yet")

// ErrLedgerFailed marks a ledger poisoned by a write or fsync failure.
// The failure is sticky: once a byte may be missing or torn on disk the
// in-memory chain state can no longer be trusted to match the file, so
// every later Append fails until the ledger is reopened (which re-reads
// and self-heals the file).
var ErrLedgerFailed = errors.New("audit: ledger failed")

// ErrCompacted is returned by Proof for a record whose segment was
// compacted into a checkpoint stub: the record bytes (and its batch's
// leaves) are gone, summarized by the stub's retained seal. Clients that
// need replayable proofs must fetch them before the retention window
// closes.
var ErrCompacted = errors.New("audit: record compacted away")

// ErrNoLedger distinguishes "this directory has never held a ledger"
// from an empty-but-valid one. Verification tools surface it as its own
// exit code: verifying a path that was never a ledger is almost always a
// typo, not a clean bill of health.
var ErrNoLedger = errors.New("audit: no ledger found")

// Record is one served attack result. Request fields identify what was
// asked, outcome fields what was answered, and Prev/Hash chain the record
// into the ledger. The JSON field order is the canonical hashing order —
// do not reorder fields.
type Record struct {
	// Seq is the record's position in the ledger, assigned by Append.
	Seq uint64 `json:"seq"`
	// TimeNS is the ledger clock's unix-nanosecond stamp at append time.
	TimeNS int64 `json:"time_ns"`
	// Kind is "attack" for /v1/attack results, "batch-unit" for units of
	// a /v1/batch table.
	Kind string `json:"kind"`

	City      string  `json:"city,omitempty"`
	Source    int64   `json:"source,omitempty"`
	Dest      int64   `json:"dest,omitempty"`
	Rank      int     `json:"rank,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Weight    string  `json:"weight,omitempty"`
	Cost      string  `json:"cost,omitempty"`
	Budget    float64 `json:"budget,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Batch and Unit locate a batch-unit record inside its table run.
	Batch string `json:"batch,omitempty"`
	Unit  int    `json:"unit,omitempty"`

	// OK marks a successful attack; Removed/TotalCost are only meaningful
	// when it is set. Failures carry FailKind instead.
	OK        bool    `json:"ok"`
	Removed   int     `json:"removed,omitempty"`
	TotalCost float64 `json:"total_cost,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
	// Cached marks a result served from the result cache — still a served
	// result, so still audited.
	Cached   bool   `json:"cached,omitempty"`
	FailKind string `json:"fail_kind,omitempty"`
	// Shed is written only by builds before the ledger went fail-closed
	// on every write failure: they could drop records on a full disk and
	// chain a Kind "audit-gap" record counting them. Current builds never
	// set it, but the field stays so those ledgers still re-marshal to the
	// bytes they were hashed from and verify on replay.
	Shed uint64 `json:"shed,omitempty"`

	// Prev is the Hash of the previous record (recordGenesis for the
	// first), and Hash is the SHA-256 of this record's canonical JSON
	// with the Hash field blanked.
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

// Seal commits one group-commit batch: the Count records starting at
// FirstSeq fold into the Merkle Root, and seals chain among themselves
// exactly like records do.
type Seal struct {
	// Batch is the seal's position in the seal chain.
	Batch uint64 `json:"batch"`
	// FirstSeq and Count delimit the sealed records [FirstSeq,
	// FirstSeq+Count).
	FirstSeq uint64 `json:"first_seq"`
	Count    int    `json:"count"`
	// Root is the Merkle root over the batch's record hashes.
	Root string `json:"root"`
	// Prev is the previous seal's Hash (sealGenesis for the first), and
	// Hash is the SHA-256 of this seal with the field blanked.
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

// entry is the JSONL wire form: exactly one field is set per line.
type entry struct {
	Record *Record `json:"record,omitempty"`
	Seal   *Seal   `json:"seal,omitempty"`
}

// HashJSON returns the hex SHA-256 of v's canonical JSON encoding (the
// struct's field order). It is the chain primitive shared by the ledger
// and the experiment checkpoint journal: chained values carry a Prev
// field and are hashed with their own Hash field blanked.
func HashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("audit: hashing: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// recordHash computes r's chain hash: canonical JSON with Hash blanked.
func recordHash(r Record) (string, error) {
	r.Hash = ""
	return HashJSON(r)
}

// sealHash computes s's chain hash: canonical JSON with Hash blanked.
func sealHash(s Seal) (string, error) {
	s.Hash = ""
	return HashJSON(s)
}

// genesis derives a chain's genesis hash from a domain tag, so the record
// and seal chains can never be spliced into one another.
func genesis(tag string) string {
	sum := sha256.Sum256([]byte("altroute/audit/v1/" + tag))
	return hex.EncodeToString(sum[:])
}

var (
	recordGenesis = genesis("records")
	sealGenesis   = genesis("seals")
)

// ChainError pinpoints the first integrity violation found in a ledger.
// It wraps ErrChainBroken.
type ChainError struct {
	// Seq is the sequence number of the offending record (or the first
	// sequence of the offending seal's batch).
	Seq uint64
	// File names the segment file holding the offending entry ("" for a
	// single-file ledger or when the violation spans files).
	File string
	// Line is the 1-based JSONL line number inside File.
	Line int
	// Reason says which invariant failed.
	Reason string
}

func (e *ChainError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("audit: hash chain broken at seq %d (%s line %d): %s", e.Seq, e.File, e.Line, e.Reason)
	}
	return fmt.Sprintf("audit: hash chain broken at seq %d (line %d): %s", e.Seq, e.Line, e.Reason)
}

// Unwrap makes errors.Is(err, ErrChainBroken) hold.
func (e *ChainError) Unwrap() error { return ErrChainBroken }
