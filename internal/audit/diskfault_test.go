package audit

import (
	"errors"
	"testing"

	"altroute/internal/faultinject"
)

// TestLedgerChaosRotateFaultDefersRotation refuses one rotation rename:
// the oversized file stays active (a counted degrade, no data at risk)
// and the next seal boundary rotates successfully.
func TestLedgerChaosRotateFaultDefersRotation(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1).Arm(faultinject.PointAuditRotate, faultinject.Rule{OnHit: 1})
	l := openRotating(t, dir, func(c *Config) { c.Injector = inj })
	appendN(t, l, 0, 2) // first seal: rotation refused
	st := l.Stats()
	if st.RotateErrors != 1 || st.Segments != 0 || st.Rotations != 0 {
		t.Fatalf("stats after refused rotation = %+v", st)
	}
	appendN(t, l, 2, 4) // second seal: rotation lands, carrying both batches
	st = l.Stats()
	if st.Rotations != 1 || st.Segments != 1 {
		t.Fatalf("stats after retried rotation = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if rep.Records != 4 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestLedgerChaosCompactFaultDefersCompaction fails one compaction pass:
// the data stays intact (nothing reclaimed), the error is a counted
// degrade rather than a poison, and the retry compacts.
func TestLedgerChaosCompactFaultDefersCompaction(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1).Arm(faultinject.PointAuditCompact, faultinject.Rule{OnHit: 1})
	l := openRotating(t, dir, func(c *Config) { c.Injector = inj })
	appendN(t, l, 0, 8)
	if err := l.Compact(1); err == nil || errors.Is(err, ErrLedgerFailed) {
		t.Fatalf("faulted compaction = %v, want a deferred (non-sticky) error", err)
	}
	st := l.Stats()
	if st.CompactErrors != 1 || st.Compactions != 0 || st.Segments != 4 {
		t.Fatalf("stats after deferred compaction = %+v, want data intact", st)
	}
	if l.Err() != nil {
		t.Fatalf("deferred compaction poisoned the ledger: %v", l.Err())
	}
	if err := l.Compact(1); err != nil {
		t.Fatalf("retried compaction = %v", err)
	}
	if st := l.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("stats after retry = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestLedgerChaosDiskFaultMatrix is the declared-outcome matrix: every
// injected disk fault must end in exactly its documented class — a
// counted degrade (rotation, compaction) or a sticky fail-closed poison
// (any write or fsync failure, a full disk included) — and in every case
// a fault-free reopen must verify the directory. No row may ever reach
// the third, undeclared outcome: silent data loss.
func TestLedgerChaosDiskFaultMatrix(t *testing.T) {
	rows := []struct {
		name   string
		point  faultinject.Point
		rule   faultinject.Rule
		mutate func(c *Config)
		// wantSticky: the fault poisons (fail-closed); otherwise the
		// ledger must finish the workload healthy and wantDegrade must
		// find the declared counter in Stats.
		wantSticky  bool
		wantDegrade func(Stats) bool
	}{
		{
			name: "torn write poisons", point: faultinject.PointAuditWrite,
			rule: faultinject.Rule{OnHit: 4}, wantSticky: true,
		},
		{
			// Rotation fsyncs the retiring file directly, so the group
			// commit's probed fsync only runs in the unrotated layout.
			name: "single fsync fault poisons", point: faultinject.PointAuditFsync,
			rule:       faultinject.Rule{OnHit: 1},
			mutate:     func(c *Config) { c.RotateBytes = 0 },
			wantSticky: true,
		},
		{
			name: "persistent fsync poisons", point: faultinject.PointAuditFsync,
			rule:       faultinject.Rule{Every: 1},
			mutate:     func(c *Config) { c.RotateBytes = 0 },
			wantSticky: true,
		},
		{
			name: "rotate refusal defers", point: faultinject.PointAuditRotate,
			rule: faultinject.Rule{OnHit: 1},
			wantDegrade: func(st Stats) bool {
				return st.RotateErrors > 0
			},
		},
		{
			name: "compact failure defers", point: faultinject.PointAuditCompact,
			rule: faultinject.Rule{OnHit: 1},
			wantDegrade: func(st Stats) bool {
				return st.CompactErrors > 0
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(1).Arm(row.point, row.rule)
			l := openTest(t, dir, func(c *Config) {
				c.FlushRecords = 2
				c.RotateBytes = 1
				c.CompactKeep = 2
				c.Injector = inj
				if row.mutate != nil {
					row.mutate(c)
				}
			})
			acked := 0
			var sticky error
			for i := 0; i < 10; i++ {
				if _, err := l.Append(testRecord(i)); err != nil {
					sticky = err
					break
				}
				acked++
			}
			if sticky == nil {
				sticky = l.Flush()
			}
			if row.wantSticky {
				if !errors.Is(sticky, ErrLedgerFailed) {
					t.Fatalf("outcome = %v, want sticky ErrLedgerFailed", sticky)
				}
			} else {
				if sticky != nil {
					t.Fatalf("outcome = %v, want the workload to survive", sticky)
				}
				// Some faults fire on the supervisor's schedule (compaction,
				// the deferred fsync): wait for the probe to land, then
				// check the declared degrade signal.
				waitFor(t, func() bool { return inj.Hits(row.point) > 0 })
				waitFor(t, func() bool { return row.wantDegrade(l.Stats()) })
			}
			if inj.Hits(row.point) == 0 {
				t.Fatal("the fault point was never probed")
			}
			_ = l.Close()

			// The invariant every row shares: a fault-free reopen heals
			// whatever the fault left and the directory verifies — the
			// acknowledged records (receipts handed out before any seal)
			// are bounded below by the sealed history.
			l2 := openTest(t, dir, nil)
			if err := l2.Close(); err != nil {
				t.Fatalf("fault-free reopen close: %v", err)
			}
			rep, err := VerifyDir(dir)
			if err != nil {
				t.Fatalf("VerifyDir after %s: %v", row.name, err)
			}
			if rep.Records > uint64(acked)+2 {
				t.Fatalf("report %+v claims more records than were ever acknowledged (%d)", rep, acked)
			}
		})
	}
}
