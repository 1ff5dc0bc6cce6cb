package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// chainState is the verified chain as replay builds it: the in-memory
// records and seals of the live (non-compacted) suffix, the two chain
// heads, and the leaves still awaiting a seal. baseSeq/baseBatch offset
// the slices when a compaction stub summarized the prefix: records[i]
// holds seq baseSeq+i, batches[i] holds batch baseBatch+i.
type chainState struct {
	baseSeq       uint64
	baseBatch     uint64
	records       []Record
	batches       []sealedBatch
	pendingLeaves [][sha256.Size]byte
	recHead       string
	sealHead      string
}

// totalRecords is the next seq to be assigned; totalBatches the next
// batch number.
func (st *chainState) totalRecords() uint64 { return st.baseSeq + uint64(len(st.records)) }
func (st *chainState) totalBatches() uint64 { return st.baseBatch + uint64(len(st.batches)) }

// dirState is the result of replaying a whole ledger directory as one
// logical stream: stub → sealed segments → active file.
type dirState struct {
	chainState
	lay  dirLayout
	stub *CompactStub
	// segEnds records the cumulative chain position at the end of each
	// live sealed segment (ascending index) — the bookkeeping rotation
	// and compaction need.
	segEnds []segmentInfo
	// tornPath/tornStart/tornBytes locate a torn final line: legitimate
	// only in the last file holding any content (every later file empty
	// or absent). tornPath == "" when the stream ends cleanly.
	tornPath  string
	tornStart int64
	tornBytes int64
	// activeBytes is the active file's post-heal length.
	activeBytes int64
	// covered lists stub-covered segment files still on disk — the
	// signature of a compaction interrupted between stub write and
	// segment removal. Open deletes them; VerifyDir only counts them.
	covered []string
}

// replayDir replays and verifies the ledger directory at dir without
// modifying anything. It returns a *ChainError (wrapping ErrChainBroken)
// at the first violation anywhere in the stream.
func replayDir(dir string) (*dirState, error) {
	lay, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	ds := &dirState{lay: lay, tornStart: -1}
	ds.recHead, ds.sealHead = recordGenesis, sealGenesis
	if lay.stubPath != "" {
		stub, err := readStub(lay.stubPath)
		if err != nil {
			return nil, err
		}
		ds.stub = stub
		ds.baseSeq = stub.Records
		ds.baseBatch = stub.Batches
		ds.recHead = stub.RecordHead
		ds.sealHead = stub.Seal.Hash
	}
	covered, live, liveIdx := lay.split(ds.stub)
	ds.covered = covered
	first := 0
	if ds.stub != nil {
		first = ds.stub.Segments
	}
	for i, idx := range liveIdx {
		if idx != first+i {
			return nil, &ChainError{Seq: ds.totalRecords(), File: filepath.Base(live[i]),
				Reason: fmt.Sprintf("segment %d missing (found %d) — deleted interior segment", first+i, idx)}
		}
	}
	files := append(append([]string{}, live...), lay.active)
	for i, p := range files {
		isActive := p == lay.active
		data, err := os.ReadFile(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) && isActive {
				// A crash between rotation's rename and the new active
				// file's creation legitimately leaves no active file.
				break
			}
			return nil, fmt.Errorf("audit: %w", err)
		}
		if len(data) > 0 {
			if ds.tornPath != "" {
				return nil, &ChainError{Seq: ds.totalRecords(), File: filepath.Base(ds.tornPath),
					Reason: "torn line followed by later entries (interior truncation)"}
			}
			if i > 0 && len(ds.pendingLeaves) > 0 {
				// Only the writer partitions the stream into files, and it
				// rotates strictly at seal boundaries; unsealed records
				// crossing a segment boundary mean the files were
				// rearranged. (A segment holding the pending tail with
				// nothing after it is different — that is a healable
				// truncation, and Open un-rotates it back to the active
				// file.)
				return nil, &ChainError{Seq: ds.totalRecords(), File: filepath.Base(files[i-1]),
					Reason: "segment does not end at a seal boundary"}
			}
		}
		torn, err := ds.replayFile(data, filepath.Base(p))
		if err != nil {
			return nil, err
		}
		if torn >= 0 {
			ds.tornPath = p
			ds.tornStart = torn
			ds.tornBytes = int64(len(data)) - torn
		}
		if isActive {
			ds.activeBytes = int64(len(data))
			if torn >= 0 {
				ds.activeBytes = torn
			}
		} else {
			ds.segEnds = append(ds.segEnds, segmentInfo{
				index:   liveIdx[i],
				path:    p,
				records: ds.totalRecords(),
				batches: ds.totalBatches(),
				recHead: ds.recHead,
			})
		}
	}
	return ds, nil
}

// replayFile parses and verifies one file of the stream, mutating st.
// The returned offset marks a torn final line (-1 for a clean end);
// interior violations are *ChainError.
func (st *chainState) replayFile(data []byte, file string) (int64, error) {
	lineNo := 0
	for off := int64(0); off < int64(len(data)); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Bytes past the final newline: a torn write. Writes always
			// end with '\n', so only a kill (or fault) mid-write leaves
			// this shape, and only as the very last line of the stream.
			return off, nil
		}
		lineNo++
		line := data[off : off+int64(nl)]
		off += int64(nl) + 1
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || (e.Record == nil) == (e.Seal == nil) {
			// A complete line that is not exactly one record or seal can
			// only be corruption: resume truncates tears, so no scars
			// accumulate mid-file.
			return -1, &ChainError{Seq: st.totalRecords(), File: file, Line: lineNo, Reason: "unparseable entry"}
		}
		// Lines are only ever written as canonical json.Marshal output, so a
		// stored line must be bit-identical to the re-marshaling of what it
		// parsed to. This closes the JSON malleability gap: a byte flip that
		// is semantically neutral (say, renaming a key whose field held its
		// zero value) leaves the content hash intact but can never reproduce
		// the canonical bytes.
		if canon, err := json.Marshal(e); err != nil || !bytes.Equal(canon, line) {
			return -1, &ChainError{Seq: st.totalRecords(), File: file, Line: lineNo, Reason: "non-canonical line encoding"}
		}
		if e.Record != nil {
			if err := st.verifyRecord(*e.Record, file, lineNo); err != nil {
				return -1, err
			}
			continue
		}
		if err := st.verifySeal(*e.Seal, file, lineNo); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

// verifyRecord checks one record against the chain and absorbs it.
func (st *chainState) verifyRecord(rec Record, file string, lineNo int) error {
	if want := st.totalRecords(); rec.Seq != want {
		return &ChainError{Seq: rec.Seq, File: file, Line: lineNo,
			Reason: fmt.Sprintf("record seq %d, want %d (insertion or deletion)", rec.Seq, want)}
	}
	if rec.Prev != st.recHead {
		return &ChainError{Seq: rec.Seq, File: file, Line: lineNo,
			Reason: "prev hash does not match the preceding record"}
	}
	h, err := recordHash(rec)
	if err != nil {
		return err
	}
	if h != rec.Hash {
		return &ChainError{Seq: rec.Seq, File: file, Line: lineNo,
			Reason: "record content does not match its hash (altered record)"}
	}
	leaf, err := leafHash(h)
	if err != nil {
		return err
	}
	st.records = append(st.records, rec)
	st.pendingLeaves = append(st.pendingLeaves, leaf)
	st.recHead = h
	return nil
}

// verifySeal checks one seal against the pending records and absorbs it.
func (st *chainState) verifySeal(seal Seal, file string, lineNo int) error {
	if want := st.totalBatches(); seal.Batch != want {
		return &ChainError{Seq: seal.FirstSeq, File: file, Line: lineNo,
			Reason: fmt.Sprintf("seal batch %d, want %d", seal.Batch, want)}
	}
	sealedThrough := st.totalRecords() - uint64(len(st.pendingLeaves))
	if seal.FirstSeq != sealedThrough || seal.Count != len(st.pendingLeaves) || seal.Count == 0 {
		return &ChainError{Seq: seal.FirstSeq, File: file, Line: lineNo,
			Reason: fmt.Sprintf("seal covers [%d,+%d), want [%d,+%d)",
				seal.FirstSeq, seal.Count, sealedThrough, len(st.pendingLeaves))}
	}
	if seal.Prev != st.sealHead {
		return &ChainError{Seq: seal.FirstSeq, File: file, Line: lineNo,
			Reason: "seal prev hash does not match the preceding seal"}
	}
	root := merkleRoot(st.pendingLeaves)
	if hex.EncodeToString(root[:]) != seal.Root {
		return &ChainError{Seq: seal.FirstSeq, File: file, Line: lineNo,
			Reason: "merkle root does not match the sealed records"}
	}
	h, err := sealHash(seal)
	if err != nil {
		return err
	}
	if h != seal.Hash {
		return &ChainError{Seq: seal.FirstSeq, File: file, Line: lineNo,
			Reason: "seal content does not match its hash (altered seal)"}
	}
	leaves := make([][sha256.Size]byte, len(st.pendingLeaves))
	copy(leaves, st.pendingLeaves)
	st.batches = append(st.batches, sealedBatch{seal: seal, leaves: leaves})
	st.pendingLeaves = st.pendingLeaves[:0]
	st.sealHead = seal.Hash
	return nil
}

// Report summarizes an offline chain verification.
type Report struct {
	// Records is the number of chain-verified records, including the
	// compacted prefix vouched for by the stub.
	Records uint64 `json:"records"`
	// SealedBatches and SealedRecords count the proof-carrying history.
	SealedBatches uint64 `json:"sealed_batches"`
	SealedRecords uint64 `json:"sealed_records"`
	// Pending counts verified records not yet covered by a seal.
	Pending int `json:"pending_records"`
	// Segments counts the live sealed segment files; the Compacted*
	// fields describe the stub-summarized prefix (zero when no stub).
	Segments          int    `json:"segments"`
	CompactedSegments int    `json:"compacted_segments,omitempty"`
	CompactedRecords  uint64 `json:"compacted_records,omitempty"`
	CompactedBatches  uint64 `json:"compacted_batches,omitempty"`
	// LeftoverSegments counts stub-covered segment files still on disk —
	// an interrupted compaction the next Open will finish.
	LeftoverSegments int `json:"leftover_segments,omitempty"`
	// TornBytes is the length of a torn final line that a reopen would
	// truncate (0 for a cleanly-ended stream); TornFile names the file
	// holding it.
	TornBytes int64  `json:"torn_bytes"`
	TornFile  string `json:"torn_file,omitempty"`
	// RecordHead and SealHead are the verified chain heads.
	RecordHead string `json:"record_head"`
	SealHead   string `json:"seal_head"`
}

func (ds *dirState) report() Report {
	rep := Report{
		Records:          ds.totalRecords(),
		SealedBatches:    ds.totalBatches(),
		SealedRecords:    ds.totalRecords() - uint64(len(ds.pendingLeaves)),
		Pending:          len(ds.pendingLeaves),
		Segments:         len(ds.segEnds),
		LeftoverSegments: len(ds.covered),
		RecordHead:       ds.recHead,
		SealHead:         ds.sealHead,
	}
	if ds.stub != nil {
		rep.CompactedSegments = ds.stub.Segments
		rep.CompactedRecords = ds.stub.Records
		rep.CompactedBatches = ds.stub.Batches
	}
	if ds.tornPath != "" {
		rep.TornBytes = ds.tornBytes
		rep.TornFile = filepath.Base(ds.tornPath)
	}
	return rep
}

// VerifyDir replays and verifies the ledger in dir without touching it.
// On a broken chain the error is a *ChainError (wrapping ErrChainBroken)
// naming the first bad record. A directory holding no ledger artifact at
// all returns ErrNoLedger — an absent ledger is neither tampered nor a
// clean bill of health, and verification tools give it its own exit
// code.
func VerifyDir(dir string) (Report, error) { //lint:allow ctxflow offline verification is linear in the ledger file; partial verification has no value, so it runs to completion
	ds, err := replayDir(dir)
	if err != nil {
		return Report{}, err
	}
	if !ds.lay.hasAny {
		return Report{}, fmt.Errorf("%s: %w", dir, ErrNoLedger)
	}
	return ds.report(), nil
}
