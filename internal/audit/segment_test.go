package audit

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openRotating opens a test ledger that seals every 2 records and rotates
// at every seal boundary (RotateBytes 1 is always exceeded), so a handful
// of appends builds a multi-segment ledger deterministically.
func openRotating(t testing.TB, dir string, mutate func(*Config)) *Ledger {
	t.Helper()
	return openTest(t, dir, func(c *Config) {
		c.FlushRecords = 2
		c.RotateBytes = 1
		if mutate != nil {
			mutate(c)
		}
	})
}

// copyDir clones a ledger directory file-for-file into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLedgerRotationProofsSpanSegments rotates the ledger across several
// sealed segments and asserts every record — whichever segment its bytes
// landed in — still serves a verifying inclusion proof, before and after
// a reopen.
func TestLedgerRotationProofsSpanSegments(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, n)
	st := l.Stats()
	if st.Segments < 3 || st.Rotations < 3 {
		t.Fatalf("stats = %+v, want at least 3 segments", st)
	}
	for seq := uint64(0); seq < n; seq++ {
		p, err := l.Proof(seq)
		if err != nil {
			t.Fatalf("Proof(%d): %v", seq, err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("VerifyProof(%d): %v", seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != n || rep.Segments != st.Segments || rep.Pending != 0 {
		t.Fatalf("report = %+v, want %d records over %d segments", rep, n, st.Segments)
	}

	// Reopen: replay crosses every segment boundary, proofs still verify,
	// and appends continue the chain into new segments.
	l2 := openRotating(t, dir, nil)
	defer l2.Close()
	for seq := uint64(0); seq < n; seq++ {
		p, err := l2.Proof(seq)
		if err != nil || VerifyProof(p) != nil {
			t.Fatalf("reopened Proof(%d): %v", seq, err)
		}
	}
	appendN(t, l2, n, n+4)
	if got := l2.Stats().Segments; got <= st.Segments {
		t.Fatalf("resumed appends did not rotate: %d segments, had %d", got, st.Segments)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("resume close: %v", err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir after resume: %v", err)
	}
}

// TestVerifyDirNoLedgerDistinctError pins the missing-ledger contract: an
// empty directory and a nonexistent one both return ErrNoLedger — neither
// a clean report nor a chain violation — so verification tooling can give
// "nothing to verify" its own exit code.
func TestVerifyDirNoLedgerDistinctError(t *testing.T) {
	if _, err := VerifyDir(t.TempDir()); !errors.Is(err, ErrNoLedger) {
		t.Errorf("empty dir: err = %v, want ErrNoLedger", err)
	}
	if _, err := VerifyDir(filepath.Join(t.TempDir(), "never-created")); !errors.Is(err, ErrNoLedger) {
		t.Errorf("missing dir: err = %v, want ErrNoLedger", err)
	}
}

// TestVerifyDirDeletedInteriorSegmentRefused deletes a middle segment and
// asserts replay refuses: the chain cannot skip a file.
func TestVerifyDirDeletedInteriorSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, 8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("VerifyDir with deleted interior segment = %v, want ErrChainBroken", err)
	}
}

// TestLedgerKillMidRotationByteSweep reconstructs every on-disk state a
// SIGKILL can leave around a rotation — the active file already renamed
// to its segment name, the fresh active file not yet created, and the
// segment's tail cut at every byte offset of its final two lines — and
// asserts startup replay always self-heals: sealed history survives, at
// most the torn record is lost, appends resume, and the resumed directory
// verifies offline. The un-rotate heal (a pending tail stranded in the
// last segment moves back into the active file) is exercised by the cuts
// that land before the final seal line.
func TestLedgerKillMidRotationByteSweep(t *testing.T) {
	t.Parallel()
	// One rotation: r0, r1, seal, renamed to segment 0; active is empty.
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(seg)
	if len(lines) != 3 {
		t.Fatalf("segment has %d lines, want r0, r1, seal", len(lines))
	}
	r1Start := len(lines[0]) + 1
	sealStart := r1Start + len(lines[1]) + 1

	for cut := r1Start; cut <= len(seg); cut++ {
		mdir := t.TempDir()
		// The crash window under test: the segment exists (possibly torn),
		// the new active file does not.
		if err := os.WriteFile(filepath.Join(mdir, segmentName(0)), seg[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		l2 := openRotating(t, mdir, nil)
		want := uint64(1) // r0 always survives; r1 only from its full line on
		if cut >= sealStart {
			want = 2
		}
		if got, _ := l2.Head(); got != want {
			t.Fatalf("cut %d: head = %d, want %d", cut, got, want)
		}
		st := l2.Stats()
		if cut == len(seg) {
			// Clean rotation state: the segment stays sealed, only the
			// active file was missing.
			if st.Segments != 1 || st.Pending != 0 {
				t.Fatalf("cut %d: stats = %+v, want 1 intact segment", cut, st)
			}
		} else {
			// The tail was cut mid-batch: the segment must have been
			// un-rotated back into the active file.
			if st.Segments != 0 {
				t.Fatalf("cut %d: stats = %+v, want the torn segment un-rotated", cut, st)
			}
			if _, err := os.Stat(filepath.Join(mdir, segmentName(0))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("cut %d: segment file still on disk after un-rotate", cut)
			}
		}
		appendN(t, l2, int(want), 4)
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		rep, err := VerifyDir(mdir)
		if err != nil {
			t.Fatalf("cut %d: VerifyDir after resume: %v", cut, err)
		}
		if rep.Records != 4 || rep.Pending != 0 || rep.TornBytes != 0 {
			t.Fatalf("cut %d: resumed report = %+v", cut, rep)
		}
	}
}

// TestLedgerTornTailInActiveAfterRotationHeals cuts the ACTIVE file at
// every byte offset of its final record line while sealed segments sit
// before it — the multi-file generalization of the single-file torn-tail
// sweep. Sealed segments must never be touched by the heal.
func TestLedgerTornTailInActiveAfterRotationHeals(t *testing.T) {
	dir := t.TempDir()
	l := openRotating(t, dir, nil)
	appendN(t, l, 0, 5) // two rotated segments + r4 pending in the active file
	base, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 2 || st.Pending != 1 {
		t.Fatalf("fixture stats = %+v, want 2 segments and 1 pending", st)
	}
	// Snapshot the pending-tail state BEFORE Close — closing would seal
	// (and rotate away) the tail this sweep needs in the active file.
	src := copyDir(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segA, _ := os.ReadFile(filepath.Join(src, segmentName(0)))
	segB, _ := os.ReadFile(filepath.Join(src, segmentName(1)))

	for cut := 0; cut <= len(base); cut++ {
		mdir := copyDir(t, src)
		if err := os.WriteFile(filepath.Join(mdir, ledgerFile), base[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		l2 := openRotating(t, mdir, nil)
		if got, _ := l2.Head(); got != 4 && got != 5 {
			t.Fatalf("cut %d: head = %d, want 4 (r4 torn) or 5 (intact)", cut, got)
		}
		if st := l2.Stats(); st.Segments != 2 {
			t.Fatalf("cut %d: segments = %d, want 2 untouched", cut, st.Segments)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		if a, _ := os.ReadFile(filepath.Join(mdir, segmentName(0))); !bytes.Equal(a, segA) {
			t.Fatalf("cut %d: heal modified sealed segment 0", cut)
		}
		if b, _ := os.ReadFile(filepath.Join(mdir, segmentName(1))); !bytes.Equal(b, segB) {
			t.Fatalf("cut %d: heal modified sealed segment 1", cut)
		}
		if _, err := VerifyDir(mdir); err != nil {
			t.Fatalf("cut %d: VerifyDir: %v", cut, err)
		}
	}
}
