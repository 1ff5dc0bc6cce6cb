package audit

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"altroute/internal/faultinject"
)

// recordLines extracts only the record lines from a ledger file, so runs
// whose seal boundaries differ (an interrupted run seals at different
// points than an uninterrupted one) can still be compared record-for-
// record.
func recordLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	var recs [][]byte
	for _, line := range splitLines(data) {
		if bytes.HasPrefix(line, []byte(`{"record":`)) {
			recs = append(recs, line)
		}
	}
	return recs
}

// runUninterrupted produces the reference ledger: the same appends with
// no faults, sealed once at the end.
func runUninterrupted(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	appendN(t, l, 0, n)
	if err := l.Close(); err != nil {
		t.Fatalf("reference close: %v", err)
	}
	return dir
}

// TestLedgerChaosWriteFaultResumesBitIdentical kills a record write
// mid-line (the faultinject torn-prefix shape), asserts the ledger fails
// closed, then reopens and replays the remaining appends. The resumed
// ledger's record lines must be bit-identical to an uninterrupted run's —
// the PR's core crash-consistency claim.
func TestLedgerChaosWriteFaultResumesBitIdentical(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	inj := faultinject.New(1).Arm(faultinject.PointAuditWrite, faultinject.Rule{OnHit: 4})
	l := openTest(t, dir, func(c *Config) { c.Injector = inj })

	appendN(t, l, 0, 3)
	_, err := l.Append(testRecord(3)) // 4th line write: torn
	if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("faulted append = %v, want injected+ledger-failed", err)
	}
	// The failure is sticky: nothing else gets in, flush included.
	if _, err := l.Append(testRecord(3)); !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("append after fault = %v, want ErrLedgerFailed", err)
	}
	if err := l.Flush(); !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("flush after fault = %v, want ErrLedgerFailed", err)
	}
	if l.Err() == nil {
		t.Fatal("Err() = nil after fault")
	}
	if err := l.Close(); !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("close of failed ledger = %v", err)
	}
	// The torn half-line really is on disk.
	data, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if data[len(data)-1] == '\n' {
		t.Fatal("expected a torn (newline-less) tail on disk")
	}

	// Reopen: heal, then resume the interrupted sequence.
	l2 := openTest(t, dir, nil)
	if seq, _ := l2.Head(); seq != 3 {
		t.Fatalf("healed head seq = %d, want 3", seq)
	}
	appendN(t, l2, 3, n)
	if err := l2.Close(); err != nil {
		t.Fatalf("resume close: %v", err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir after resume: %v", err)
	}

	ref := runUninterrupted(t, n)
	got, want := recordLines(t, dir), recordLines(t, ref)
	if len(got) != len(want) {
		t.Fatalf("resumed run has %d records, reference %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs:\n resumed  %s\n uninterrupted %s", i, got[i], want[i])
		}
	}
}

// TestLedgerChaosKillMidFlushResumesBitIdentical tears the SEAL line of a
// size-triggered group commit — the exact "killed mid-flush" moment. The
// records of the batch are already on disk; only the seal is torn. Resume
// must keep every record, reseal, and match the uninterrupted run's
// record lines bit for bit (seal boundaries legitimately differ).
func TestLedgerChaosKillMidFlushResumesBitIdentical(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	// Writes are r0 r1 r2 r3 then the seal: line write #5 is the seal.
	inj := faultinject.New(1).Arm(faultinject.PointAuditWrite, faultinject.Rule{OnHit: 5})
	l := openTest(t, dir, func(c *Config) { c.FlushRecords = 4; c.Injector = inj })

	appendN(t, l, 0, 3)
	if _, err := l.Append(testRecord(3)); !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("append that triggers torn flush = %v, want ErrLedgerFailed", err)
	}
	_ = l.Close()

	l2 := openTest(t, dir, nil)
	st := l2.Stats()
	// All four records survived; the torn seal is gone, so they are pending.
	if st.Records != 4 || st.SealedBatches != 0 || st.Pending != 4 {
		t.Fatalf("after torn-seal heal: %+v", st)
	}
	appendN(t, l2, 4, n)
	if err := l2.Close(); err != nil {
		t.Fatalf("resume close: %v", err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir after resume: %v", err)
	}
	if rep.Records != n || rep.Pending != 0 {
		t.Fatalf("resumed report = %+v", rep)
	}

	ref := runUninterrupted(t, n)
	got, want := recordLines(t, dir), recordLines(t, ref)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs after mid-flush kill:\n resumed  %s\n uninterrupted %s", i, got[i], want[i])
		}
	}
}

// TestLedgerChaosSingleFsyncFaultPoisons fails the group commit's fsync
// exactly once. A failed fsync may already have dropped the dirty pages,
// so a retry that succeeds would prove nothing: the first failure must
// poison the ledger, the probe must run exactly once (no retry), and a
// fault-free reopen must verify without phantom records.
func TestLedgerChaosSingleFsyncFaultPoisons(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1).Arm(faultinject.PointAuditFsync, faultinject.Rule{OnHit: 1})
	l := openTest(t, dir, func(c *Config) { c.Injector = inj })
	appendN(t, l, 0, 3)
	if err := l.Flush(); !errors.Is(err, ErrLedgerFailed) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("flush with one fsync fault = %v, want sticky ErrLedgerFailed", err)
	}
	if hits := inj.Hits(faultinject.PointAuditFsync); hits != 1 {
		t.Fatalf("fsync probed %d times, want 1 (no retry)", hits)
	}
	if _, err := l.Append(testRecord(3)); !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("append after fsync fault = %v, want ErrLedgerFailed", err)
	}
	if st := l.Stats(); st.Error == "" || st.Fsyncs != 0 {
		t.Fatalf("stats = %+v, want the sticky error and no counted fsync", st)
	}
	_ = l.Close()

	l2 := openTest(t, dir, nil)
	if err := l2.Close(); err != nil {
		t.Fatalf("fault-free reopen close: %v", err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != 3 {
		t.Fatalf("report = %+v, want exactly the 3 appended records", rep)
	}
}

// TestLedgerChaosFsyncFaultPoisonsButKeepsIntegrity fails the group
// commit's fsync on every attempt: durability is in doubt, so the ledger fails closed — but nothing was
// torn, so a reopen finds a fully intact, verifiable chain including
// the seal.
func TestLedgerChaosFsyncFaultPoisonsButKeepsIntegrity(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1).Arm(faultinject.PointAuditFsync, faultinject.Rule{Every: 1})
	l := openTest(t, dir, func(c *Config) { c.Injector = inj })
	appendN(t, l, 0, 3)
	if err := l.Flush(); !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("faulted fsync = %v, want injected+ledger-failed", err)
	}
	if _, err := l.Append(testRecord(3)); !errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("append after fsync fault = %v, want ErrLedgerFailed", err)
	}
	_ = l.Close()

	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != 3 || rep.SealedBatches != 1 || rep.Pending != 0 {
		t.Fatalf("report after fsync fault = %+v", rep)
	}
	l2 := openTest(t, dir, nil)
	defer l2.Close()
	if p, err := l2.Proof(2); err != nil || VerifyProof(p) != nil {
		t.Fatalf("proof after fsync-faulted seal: %v", err)
	}
}

// TestLedgerChaosProbabilisticFaultsAlwaysHealOrRefuse drives many
// seeded runs with probabilistic write/fsync faults; whatever the
// interleaving, a reopen must either verify cleanly (healed) — never
// accept a broken chain.
func TestLedgerChaosProbabilisticFaultsAlwaysHealOrRefuse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		dir := t.TempDir()
		inj := faultinject.New(seed).
			Arm(faultinject.PointAuditWrite, faultinject.Rule{Prob: 0.15}).
			Arm(faultinject.PointAuditFsync, faultinject.Rule{Prob: 0.15})
		l := openTest(t, dir, func(c *Config) { c.FlushRecords = 3; c.Injector = inj })
		wrote := 0
		for i := 0; i < 12; i++ {
			if _, err := l.Append(testRecord(i)); err != nil {
				break
			}
			wrote++
		}
		_ = l.Close()

		// Reopen with no faults: must heal and verify, keeping at least
		// everything sealed before the first fault.
		l2, err := Open(Config{Dir: dir, Clock: testClock(), FlushRecords: 1 << 20, FlushEvery: time.Hour})
		if err != nil {
			t.Fatalf("seed %d: reopen after chaos = %v", seed, err)
		}
		st := l2.Stats()
		if st.Records > uint64(wrote)+1 {
			t.Fatalf("seed %d: reopened with %d records but only %d acknowledged", seed, st.Records, wrote)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
		if _, err := VerifyDir(dir); err != nil {
			t.Fatalf("seed %d: VerifyDir = %v", seed, err)
		}
	}
}
