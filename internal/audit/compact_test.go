package audit

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //lint:allow wallclock test polling deadline
	for !cond() {
		if time.Now().After(deadline) { //lint:allow wallclock test polling deadline
			t.Fatal("timed out waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLedgerCompactionBoundsStateAndKeepsVerifying compacts old segments
// into the checkpoint stub and asserts the contract: compacted records
// answer ErrCompacted (not a bogus proof), live records keep proving,
// appends continue the chain, and both the running ledger and an offline
// reopen verify across the stub boundary.
func TestLedgerCompactionBoundsStateAndKeepsVerifying(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, n) // 6 segments of one batch each
	if err := l.Compact(2); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := l.Stats()
	if st.Segments != 2 || st.CompactedSegments != 4 || st.CompactedRecords != 8 || st.CompactedBatches != 4 {
		t.Fatalf("stats after compaction = %+v", st)
	}
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	// Compacted range: bytes gone, ErrCompacted answers.
	for seq := uint64(0); seq < 8; seq++ {
		if _, ok := l.Record(seq); ok {
			t.Fatalf("Record(%d) ok, want compacted away", seq)
		}
		if _, err := l.Proof(seq); !errors.Is(err, ErrCompacted) {
			t.Fatalf("Proof(%d) = %v, want ErrCompacted", seq, err)
		}
	}
	// Live range keeps proving.
	for seq := uint64(8); seq < n; seq++ {
		p, err := l.Proof(seq)
		if err != nil || VerifyProof(p) != nil {
			t.Fatalf("live Proof(%d): %v", seq, err)
		}
	}
	appendN(t, l, n, n+4)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != n+4 || rep.CompactedSegments != 4 || rep.CompactedRecords != 8 {
		t.Fatalf("report = %+v", rep)
	}

	// Reopen over the stub: the chain picks up from the summarized prefix.
	l2 := openRotating(t, dir, nil)
	defer l2.Close()
	if seq, _ := l2.Head(); seq != n+4 {
		t.Fatalf("reopened head = %d, want %d", seq, n+4)
	}
	if _, err := l2.Proof(3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("reopened Proof(3) = %v, want ErrCompacted", err)
	}
	if p, err := l2.Proof(10); err != nil || VerifyProof(p) != nil {
		t.Fatalf("reopened live Proof(10): %v", err)
	}
}

// TestLedgerSupervisorCompactsPastKeep lets the background supervisor
// (not an explicit Compact call) trigger compaction once rotation has
// built up more than CompactKeep segments.
func TestLedgerSupervisorCompactsPastKeep(t *testing.T) {
	dir := t.TempDir()
	l := openRotating(t, dir, func(c *Config) { c.CompactKeep = 2 })
	appendN(t, l, 0, 12)
	// The supervisor runs on FlushEvery (disabled here) or on the kick a
	// sealing append sends; sealing appends happened, so the compaction
	// lands without an explicit Compact — poll briefly for it.
	waitFor(t, func() bool {
		st := l.Stats()
		return st.Compactions > 0 && st.Segments <= 2
	})
	if st := l.Stats(); st.CompactedSegments == 0 {
		t.Fatalf("supervisor did not compact: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestLedgerRepeatedCompactionAdvancesStub compacts, appends, and
// compacts again: the second stub must supersede the first and the chain
// must stay whole across both boundaries.
func TestLedgerRepeatedCompactionAdvancesStub(t *testing.T) {
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, 8)
	if err := l.Compact(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 8, 16)
	if err := l.Compact(1); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Compactions != 2 || st.CompactedRecords <= 6 {
		t.Fatalf("stats after second compaction = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestLedgerKillMidCompactionStatesHeal reconstructs the three on-disk
// states a SIGKILL can leave around the compaction protocol and asserts
// each heals at the next open:
//
//  1. stub written only to its temp file (crash before the rename): the
//     temp file is removed and the uncompacted layout is authoritative —
//     swept at every byte prefix of the temp file;
//  2. stub renamed into place, covered segments still on disk (crash
//     before removal): the stub is authoritative, leftovers are removed;
//  3. stub in place, segments gone: the completed state, replays as-is.
func TestLedgerKillMidCompactionStatesHeal(t *testing.T) {
	t.Parallel()
	// Fixture: a closed, multi-segment ledger (pre) and its compacted twin
	// (post) — same appends under the same fixed clock, so the stub bytes
	// are exactly what an interrupted compaction of pre would have written.
	pre := t.TempDir()
	l := openRotating(t, pre, nil)
	appendN(t, l, 0, 8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cdir := copyDir(t, pre)
	lc := openRotating(t, cdir, nil)
	if err := lc.Compact(1); err != nil {
		t.Fatal(err)
	}
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	stub, err := os.ReadFile(filepath.Join(cdir, stubFile))
	if err != nil {
		t.Fatal(err)
	}

	// State 1: temp file only, at every byte prefix (WriteFileSynced
	// renames atomically, but the temp write itself can die anywhere).
	for cut := 0; cut <= len(stub); cut++ {
		mdir := copyDir(t, pre)
		if err := os.WriteFile(filepath.Join(mdir, stubFile+".tmp"), stub[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyDir(mdir)
		if err != nil {
			t.Fatalf("cut %d: VerifyDir with stray temp = %v", cut, err)
		}
		if rep.CompactedSegments != 0 || rep.Records != 8 {
			t.Fatalf("cut %d: report = %+v, want the uncompacted layout", cut, rep)
		}
		l2 := openRotating(t, mdir, nil)
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		if _, err := os.Stat(filepath.Join(mdir, stubFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("cut %d: open did not remove the stray temp file", cut)
		}
	}

	// State 2: stub authoritative, covered segments left on disk.
	mdir := copyDir(t, pre)
	if err := os.WriteFile(filepath.Join(mdir, stubFile), stub, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(mdir)
	if err != nil {
		t.Fatalf("VerifyDir with leftover segments: %v", err)
	}
	if rep.LeftoverSegments == 0 || rep.CompactedSegments == 0 {
		t.Fatalf("report = %+v, want leftover covered segments under a stub", rep)
	}
	l2 := openRotating(t, mdir, nil)
	if st := l2.Stats(); st.CompactedRecords != rep.CompactedRecords {
		t.Fatalf("reopened stats = %+v, want the stub honored", st)
	}
	appendN(t, l2, 8, 10)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := VerifyDir(mdir)
	if err != nil {
		t.Fatalf("VerifyDir after finishing compaction: %v", err)
	}
	if rep2.LeftoverSegments != 0 {
		t.Fatalf("open did not remove covered segments: %+v", rep2)
	}

	// State 3: the completed compaction replays as-is.
	if _, err := VerifyDir(cdir); err != nil {
		t.Fatalf("VerifyDir on completed compaction: %v", err)
	}
}

// TestCompactStubTamperRefused alters the stub in ways a forger would
// need — inflating the summarized range, swapping the retained seal —
// and asserts replay refuses each.
func TestCompactStubTamperRefused(t *testing.T) {
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, 8)
	if err := l.Compact(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stubPath := filepath.Join(dir, stubFile)
	orig, err := os.ReadFile(stubPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"inflate summarized records", `"records":6`, `"records":7`},
		{"shrink covered segments", `"segments":3`, `"segments":2`},
		{"flip a retained-seal hash byte", `"root":"`, `"root":"f`},
	} {
		doctored := strings.Replace(string(orig), tc.from, tc.to, 1)
		if doctored == string(orig) {
			t.Fatalf("%s: pattern %q not found in stub", tc.name, tc.from)
		}
		if err := os.WriteFile(stubPath, []byte(doctored), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); !errors.Is(err, ErrChainBroken) {
			t.Errorf("%s: VerifyDir = %v, want ErrChainBroken", tc.name, err)
		}
		if _, err := Open(Config{Dir: dir, Clock: testClock()}); !errors.Is(err, ErrChainBroken) {
			t.Errorf("%s: Open = %v, want refusal", tc.name, err)
		}
	}
	if err := os.WriteFile(stubPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("restored stub no longer verifies: %v", err)
	}
}
