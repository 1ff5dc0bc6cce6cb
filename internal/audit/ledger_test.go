package audit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testClock returns a deterministic clock: a fixed instant, so two runs
// of the same append sequence produce bit-identical records.
func testClock() func() time.Time {
	t0 := time.Unix(1_700_000_000, 0)
	return func() time.Time { return t0 }
}

// openTest opens a ledger with the flush timer effectively disabled, so
// tests control sealing via FlushRecords and explicit Flush calls.
func openTest(t testing.TB, dir string, mutate func(*Config)) *Ledger {
	t.Helper()
	cfg := Config{
		Dir:          dir,
		FlushEvery:   time.Hour,
		FlushRecords: 1 << 20,
		Clock:        testClock(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// testRecord builds the i-th deterministic record of a test sequence.
func testRecord(i int) Record {
	return Record{
		Kind:      "attack",
		City:      "boston",
		Source:    int64(i),
		Dest:      int64(i) + 100,
		Rank:      4,
		Algorithm: "GreedyPathCover",
		Weight:    "TIME",
		Cost:      "UNIFORM",
		Seed:      int64(i) * 7,
		OK:        true,
		Removed:   3 + i%5,
		TotalCost: float64(i) * 1.5,
	}
}

func appendN(t testing.TB, l *Ledger, from, to int) []Receipt {
	t.Helper()
	var rs []Receipt
	for i := from; i < to; i++ {
		r, err := l.Append(testRecord(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		rs = append(rs, r)
	}
	return rs
}

func TestLedgerChainGroupCommitAndReopen(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 4 })

	recs := appendN(t, l, 0, 10)
	for i, r := range recs {
		if r.Seq != uint64(i) || r.Hash == "" {
			t.Fatalf("receipt %d = %+v", i, r)
		}
	}
	st := l.Stats()
	if st.Records != 10 || st.SealedBatches != 2 || st.SealedRecords != 8 || st.Pending != 2 {
		t.Fatalf("stats after 10 appends = %+v", st)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Size-bound seals hand their fsync to the background flusher, so the
	// count here depends on how it interleaved — but a synchronous Flush
	// leaves everything durable, and at most one fsync per seal was paid.
	if st = l.Stats(); st.SealedBatches != 3 || st.Pending != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if st.Fsyncs < 1 || st.Fsyncs > 3 {
		t.Fatalf("group commit did not coalesce fsyncs: %+v", st)
	}
	headSeq, headHash := l.Head()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the chain replays, heads match, and the sequence continues.
	l2 := openTest(t, dir, nil)
	defer l2.Close()
	seq2, hash2 := l2.Head()
	if seq2 != headSeq || hash2 != headHash {
		t.Fatalf("reopened head = (%d, %s), want (%d, %s)", seq2, hash2, headSeq, headHash)
	}
	r, err := l2.Append(testRecord(10))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if r.Seq != 10 {
		t.Fatalf("resumed seq = %d, want 10", r.Seq)
	}
	if got, ok := l2.Record(3); !ok || got.Source != 3 || got.Seq != 3 {
		t.Fatalf("Record(3) = %+v, %v", got, ok)
	}
	if err := l2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != 11 || rep.SealedRecords != 11 || rep.TornBytes != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestProofVerifiesOfflineAtEverySeq(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 3 })
	defer l.Close()
	appendN(t, l, 0, 8) // seals at 3 and 6; 2 pending
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for seq := uint64(0); seq < 8; seq++ {
		p, err := l.Proof(seq)
		if err != nil {
			t.Fatalf("Proof(%d): %v", seq, err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("VerifyProof(%d): %v", seq, err)
		}
		if p.Record.Source != int64(seq) {
			t.Fatalf("proof %d carries record %+v", seq, p.Record)
		}
	}

	// A proof stops verifying the moment any component is doctored.
	p, err := l.Proof(4)
	if err != nil {
		t.Fatalf("Proof(4): %v", err)
	}
	doctored := p
	doctored.Record.TotalCost += 1
	if err := VerifyProof(doctored); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("altered record verified: %v", err)
	}
	doctored = p
	doctored.Seal.Root = p.Seal.Prev
	if err := VerifyProof(doctored); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("altered root verified: %v", err)
	}
	doctored = p
	doctored.Seq, doctored.Record.Seq, doctored.Index = 5, 5, 5
	if err := VerifyProof(doctored); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("relocated proof verified: %v", err)
	}
	if len(p.Path) > 0 {
		doctored = p
		doctored.Path = append([]ProofStep{}, p.Path...)
		doctored.Path[0].Left = !doctored.Path[0].Left
		if err := VerifyProof(doctored); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("mirrored path verified: %v", err)
		}
	}
}

func TestProofNotFoundAndUnsealed(t *testing.T) {
	l := openTest(t, t.TempDir(), nil)
	defer l.Close()
	appendN(t, l, 0, 2)
	if _, err := l.Proof(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Proof(7) = %v, want ErrNotFound", err)
	}
	if _, err := l.Proof(1); !errors.Is(err, ErrUnsealed) {
		t.Fatalf("Proof(1) before flush = %v, want ErrUnsealed", err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	p, err := l.Proof(1)
	if err != nil {
		t.Fatalf("Proof(1) after flush: %v", err)
	}
	if err := VerifyProof(p); err != nil {
		t.Fatalf("VerifyProof: %v", err)
	}
}

// TestLedgerFlushCoalescesFsyncs pins the group-commit ratio where it is
// deterministic: no size or time trigger fires, so the explicit Flush is
// the only fsync — one disk round-trip for ten records.
func TestLedgerFlushCoalescesFsyncs(t *testing.T) {
	l := openTest(t, t.TempDir(), nil)
	defer l.Close()
	appendN(t, l, 0, 10)
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := l.Stats()
	if st.Fsyncs != 1 || st.RecordsPerFsync != 10 || st.SealedBatches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
	if st = l.Stats(); st.Fsyncs != 1 {
		t.Fatalf("empty Flush paid an fsync: %+v", st)
	}
}

func TestLedgerSyncEachRecordSealsInline(t *testing.T) {
	l := openTest(t, t.TempDir(), func(c *Config) { c.SyncEachRecord = true })
	defer l.Close()
	appendN(t, l, 0, 5)
	st := l.Stats()
	if st.SealedBatches != 5 || st.Pending != 0 || st.Fsyncs != 5 {
		t.Fatalf("sync-each stats = %+v", st)
	}
	// Proofs are immediately available — the price is an fsync per record.
	for seq := uint64(0); seq < 5; seq++ {
		p, err := l.Proof(seq)
		if err != nil {
			t.Fatalf("Proof(%d): %v", seq, err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("VerifyProof(%d): %v", seq, err)
		}
		if p.Seal.Count != 1 {
			t.Fatalf("sync-each seal count = %d, want 1", p.Seal.Count)
		}
	}
}

// TestLedgerTimedFlushSeals exercises the background flusher: with a
// short FlushEvery, a pending record gets sealed without any explicit
// Flush or size trigger.
func TestLedgerTimedFlushSeals(t *testing.T) {
	l := openTest(t, t.TempDir(), func(c *Config) { c.FlushEvery = 5 * time.Millisecond })
	defer l.Close()
	appendN(t, l, 0, 1)
	deadline := time.Now().Add(30 * time.Second) //lint:allow wallclock test polling deadline
	for l.Stats().SealedBatches == 0 {
		if time.Now().After(deadline) { //lint:allow wallclock test polling deadline
			t.Fatal("background flusher never sealed the pending record")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Proof(0); err != nil {
		t.Fatalf("Proof after timed flush: %v", err)
	}
}

// TestLedgerDetectsFlippedByteAnywhere flips one byte at every position
// of every sealed line and asserts Open refuses the directory with
// ErrChainBroken each time — the acceptance property that an interior
// alteration can never go unnoticed.
func TestLedgerDetectsFlippedByteAnywhere(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 2 })
	appendN(t, l, 0, 4) // two sealed batches
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, ledgerFile)
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	for pos := 0; pos < len(base); pos++ {
		if base[pos] == '\n' {
			continue // line structure, not content; a flip here merges lines and still must fail
		}
		mut := append([]byte(nil), base...)
		mut[pos] ^= 0x01
		mdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(mdir, ledgerFile), mut, 0o644); err != nil {
			t.Fatalf("write mutant: %v", err)
		}
		if _, err := Open(Config{Dir: mdir}); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("flip at byte %d: Open = %v, want ErrChainBroken", pos, err)
		}
		if _, err := VerifyDir(mdir); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("flip at byte %d: VerifyDir = %v, want ErrChainBroken", pos, err)
		}
	}
}

// TestLedgerDetectsStructuralTampering covers the non-bit-flip attacks:
// deleting an interior record, reordering records, and splicing a foreign
// line in.
func TestLedgerDetectsStructuralTampering(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 3 })
	appendN(t, l, 0, 6)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	base, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	lines := splitLines(base)
	if len(lines) != 8 { // 6 records + 2 seals
		t.Fatalf("ledger has %d lines, want 8", len(lines))
	}
	cases := map[string][][]byte{
		"delete interior record": append(append([][]byte{}, lines[:1]...), lines[2:]...),
		"swap two records":       {lines[1], lines[0], lines[2], lines[3], lines[4], lines[5], lines[6], lines[7]},
		"splice garbage line":    {lines[0], []byte(`{"record":{"seq":1}}`), lines[1], lines[2], lines[3], lines[4], lines[5], lines[6], lines[7]},
		"drop a seal":            append(append([][]byte{}, lines[:3]...), lines[4:]...),
	}
	for name, mutLines := range cases {
		mdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(mdir, ledgerFile), joinLines(mutLines), 0o644); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if _, err := Open(Config{Dir: mdir}); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("%s: Open = %v, want ErrChainBroken", name, err)
		}
	}
}

// TestChainErrorNamesFirstBrokenRecord pins the report contract the
// -verify-audit subcommand relies on: the error names the first bad seq.
func TestChainErrorNamesFirstBrokenRecord(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 2 })
	appendN(t, l, 0, 6)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, ledgerFile)
	base, _ := os.ReadFile(path)
	lines := splitLines(base)
	// Corrupt the record at seq 2 (line index 3: r0 r1 seal r2 ...).
	lines[3] = []byte(replaceOnce(string(lines[3]), `"city":"boston"`, `"city":"mordor"`))
	if err := os.WriteFile(path, joinLines(lines), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err := VerifyDir(dir)
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("VerifyDir = %v, want *ChainError", err)
	}
	if ce.Seq != 2 {
		t.Fatalf("first broken seq = %d, want 2", ce.Seq)
	}
}

// TestLedgerFromEarlierBuildWithGapRecordVerifies replays a ledger that
// an earlier build wrote while it could still drop records on a full
// disk: testdata/legacy-gap holds r0, the chained "audit-gap" record
// counting one dropped record, and r2–r4 in three sealed batches. The
// Shed field must still re-marshal to the hashed bytes, so VerifyDir and
// Open accept the directory and the ledger keeps appending on top of it;
// a flipped byte in the gap record must still be a ChainError at seq 1.
func TestLedgerFromEarlierBuildWithGapRecordVerifies(t *testing.T) {
	base, err := os.ReadFile(filepath.Join("testdata", "legacy-gap", ledgerFile))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ledgerFile), base, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != 5 || rep.SealedBatches != 3 || rep.Pending != 0 {
		t.Fatalf("report = %+v, want 5 records in 3 sealed batches", rep)
	}
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 2 })
	gap, ok := l.Record(1)
	if !ok || gap.Kind != "audit-gap" || gap.Shed != 1 {
		t.Fatalf("record 1 = %+v, want the audit-gap record with shed=1", gap)
	}
	if p, err := l.Proof(1); err != nil || VerifyProof(p) != nil {
		t.Fatalf("proof of the gap record: %v", err)
	}
	appendN(t, l, 5, 7)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rep, err := VerifyDir(dir); err != nil || rep.Records != 7 {
		t.Fatalf("VerifyDir after appending = %+v, %v", rep, err)
	}

	lines := splitLines(base)
	gapStart := len(lines[0]) + 1
	mdir := t.TempDir() // every mutant is refused, so none leaves anything behind
	for pos := gapStart; pos < gapStart+len(lines[1]); pos++ {
		mut := append([]byte(nil), base...)
		mut[pos] ^= 0x01
		if err := os.WriteFile(filepath.Join(mdir, ledgerFile), mut, 0o644); err != nil {
			t.Fatalf("write mutant: %v", err)
		}
		if _, err := Open(Config{Dir: mdir}); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("flip at byte %d: Open = %v, want ErrChainBroken", pos, err)
		}
		_, err := VerifyDir(mdir)
		var ce *ChainError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at byte %d: VerifyDir = %v, want *ChainError", pos, err)
		}
	}
	lines[1] = []byte(replaceOnce(string(lines[1]), `"shed":1`, `"shed":2`))
	if err := os.WriteFile(filepath.Join(mdir, ledgerFile), joinLines(lines), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err = VerifyDir(mdir)
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Seq != 1 {
		t.Fatalf("VerifyDir with the gap count rewritten = %v, want a ChainError at seq 1", err)
	}
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, append([]byte(nil), data[start:i]...))
			start = i + 1
		}
	}
	return lines
}

func joinLines(lines [][]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(out, l...)
		out = append(out, '\n')
	}
	return out
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	panic(fmt.Sprintf("%q not found in %q", old, s))
}
