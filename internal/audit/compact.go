package audit

// Compaction summarizes a prefix of sealed segments into a single
// Merkle-checkpoint stub (Dir/compact.jsonl) and deletes the segment
// files. The stub retains, verbatim, the final Seal of the compacted
// range plus the record-chain head at the range end, so replay can
// resume both chains exactly where the dropped bytes left them and the
// first live record/seal cross-check their Prev links against it.
//
// What the stub does and does not protect: any byte flip inside it is
// caught by its self-hash and by the retained seal's own hash; a forged
// stub that re-computes those hashes but lies about the range is caught
// by the Prev cross-checks at the boundary; a wholesale rewrite of stub
// AND the entire live suffix is exactly a tail-rollback, which only a
// receipt held outside the ledger can expose — the same detectability
// boundary the unsealed tail always had, now stated for the compacted
// prefix.
//
// Compaction is a three-step protocol, each step atomic, so a crash at
// any point leaves a healable directory:
//
//  1. write the new stub to compact.jsonl.tmp (fsync);
//  2. rename it over compact.jsonl (directory fsync) — the stub is now
//     authoritative for its range;
//  3. remove the covered segment files (directory fsync).
//
// A crash after 1 leaves a stray .tmp (deleted at Open). A crash after
// 2 leaves covered segments on disk (redundant with the stub; deleted
// at Open). VerifyDir tolerates both read-only.

import (
	"encoding/json"
	"fmt"
	"os"
)

// CompactStub summarizes segments [0, Segments): their Records records
// and Batches seal batches, ending at the retained Seal. The JSON field
// order is the canonical hashing order — do not reorder fields.
type CompactStub struct {
	// Segments is the count of compacted segment files (indices
	// [0, Segments)); Records and Batches the counts of dropped records
	// (seqs [0, Records)) and seals.
	Segments int    `json:"segments"`
	Records  uint64 `json:"records"`
	Batches  uint64 `json:"batches"`
	// RecordHead is the record-chain head at the range end — the Prev the
	// first live record must carry.
	RecordHead string `json:"record_head"`
	// Seal is the final seal of the compacted range, retained verbatim:
	// its Hash is the Prev the first live seal must carry, and its own
	// self-hash still verifies.
	Seal Seal `json:"seal"`
	// Hash is the SHA-256 of the stub's canonical JSON with this field
	// blanked — a corruption check; authenticity comes from the boundary
	// cross-checks.
	Hash string `json:"hash"`
}

// stubLine is the stub file's wire form: exactly one line.
type stubLine struct {
	Compact *CompactStub `json:"compact"`
}

func stubHash(s CompactStub) (string, error) {
	s.Hash = ""
	return HashJSON(s)
}

// readStub loads and verifies Dir/compact.jsonl. nil stub when the file
// does not exist. Violations are *ChainError wrapping ErrChainBroken.
func readStub(path string) (*CompactStub, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("audit: %w", err)
	}
	line := data
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	fail := func(reason string) error {
		return &ChainError{File: stubFile, Line: 1, Reason: reason}
	}
	var sl stubLine
	if err := json.Unmarshal(line, &sl); err != nil || sl.Compact == nil {
		return nil, fail("compaction stub does not parse")
	}
	// Canonical-bytes rule, same as ledger lines: re-marshaling must be
	// bit-identical, closing JSON malleability.
	canon, err := json.Marshal(sl)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	if string(canon) != string(line) {
		return nil, fail("compaction stub is not in canonical form")
	}
	st := sl.Compact
	h, err := stubHash(*st)
	if err != nil {
		return nil, err
	}
	if h != st.Hash {
		return nil, fail("compaction stub hash mismatch")
	}
	sh, err := sealHash(st.Seal)
	if err != nil {
		return nil, err
	}
	if sh != st.Seal.Hash {
		return nil, fail("retained seal hash mismatch")
	}
	if st.Segments <= 0 {
		return nil, fail("compaction stub covers no segments")
	}
	if st.Seal.FirstSeq+uint64(st.Seal.Count) != st.Records {
		return nil, fail("compacted range does not end at its retained seal")
	}
	if st.Batches == 0 || st.Seal.Batch != st.Batches-1 {
		return nil, fail("retained seal is not the last compacted batch")
	}
	return st, nil
}

// writeStub atomically replaces Dir/compact.jsonl with stub.
func writeStub(path string, stub CompactStub) error {
	b, err := json.Marshal(stubLine{Compact: &stub})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return WriteFileSynced(path, append(b, '\n'))
}
