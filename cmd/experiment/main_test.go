package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"altroute"
	"altroute/internal/citygen"
)

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan struct{})
	var out []byte
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		close(done)
	}()
	runErr := f()
	w.Close()
	<-done
	os.Stdout = old
	return string(out), runErr
}

func TestRunTableI(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-table", "1", "-scale", "0.01", "-sources", "1"})
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"TABLE I", "Boston", "San Francisco", "Chicago", "Los Angeles"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSingleAttackTable(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-table", "3", "-scale", "0.02", "-sources", "2", "-rank", "6"})
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"TABLE III", "Boston, WEIGHT TYPE: TIME", "LP-PathCover", "GreedyEig", "UNIFORM", "WIDTH"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTableWorkers checks the -workers flag: one worker (serial) and
// two must render the same table, on fresh networks and on a network
// whose memo an earlier table run already built.
func TestRunTableWorkers(t *testing.T) {
	args := []string{"-table", "3", "-scale", "0.02", "-sources", "1", "-rank", "6"}
	serial, err := capture(t, func() error { return run(append(args, "-workers", "1")) })
	if err != nil {
		t.Fatalf("serial run: %v\n%s", err, serial)
	}
	parallel, err := capture(t, func() error { return run(append(args, "-workers", "2")) })
	if err != nil {
		t.Fatalf("parallel run: %v\n%s", err, parallel)
	}
	if !strings.Contains(parallel, "TABLE III") {
		t.Errorf("parallel output missing table:\n%s", parallel)
	}
	// The runner guarantees bit-identical cells; averaged runtimes differ
	// run to run, so compare everything but the Runtime columns.
	if got, want := stripRuntimes(parallel), stripRuntimes(serial); got != want {
		t.Errorf("parallel table differs from serial:\n--- parallel\n%s\n--- serial\n%s", got, want)
	}

	// Successive tables on one network: only the first builds its memo.
	r := &runner{scale: 0.02, seed: 1, rank: 6, sources: 1, ctx: context.Background(),
		nets: map[citygen.City]*altroute.Network{}}
	spec, err := r.spec(tableSpecs[3])
	if err != nil {
		t.Fatal(err)
	}
	for i, workers := range []int{2, 1, 2} {
		r.workers = workers
		table, err := r.runTable(spec)
		if err != nil {
			t.Fatalf("table %d on %d workers: %v", i+1, workers, err)
		}
		var sb strings.Builder
		table.Render(&sb)
		if got := stripRuntimes(sb.String()); !strings.Contains(stripRuntimes(serial), got) {
			t.Errorf("table %d on %d workers differs from the serial run:\n%s\n--- serial\n%s", i+1, workers, got, serial)
		}
	}
}

// stripRuntimes blanks the Runtime column values (first number of every
// cost-type group) so table comparisons ignore wall-clock noise.
func stripRuntimes(table string) string {
	lines := strings.Split(table, "\n")
	for i, line := range lines {
		cols := strings.Split(line, " | ")
		if len(cols) < 2 {
			continue
		}
		for j := 1; j < len(cols); j++ {
			fields := strings.Fields(cols[j])
			if len(fields) == 3 {
				fields[0] = "-"
				cols[j] = strings.Join(fields, " ")
			}
		}
		lines[i] = strings.Join(cols, " | ")
	}
	return strings.Join(lines, "\n")
}

// TestRunProfiles smoke-tests -cpuprofile/-memprofile: both files must
// exist and be non-empty after a run.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	out, err := capture(t, func() error {
		return run([]string{"-table", "1", "-scale", "0.01", "-sources", "1",
			"-cpuprofile", cpu, "-memprofile", mem})
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Errorf("missing profile %s: %v", p, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunTableX(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-table", "10", "-scale", "0.02", "-sources", "2", "-rank", "6"})
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "THRESHOLD TABLE") {
		t.Errorf("output missing threshold table:\n%s", out)
	}
}

func TestRunFigures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "figs")
	out, err := capture(t, func() error {
		return run([]string{"-figures", dir, "-scale", "0.02", "-sources", "1", "-rank", "6"})
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for i := 1; i <= 4; i++ {
		p := filepath.Join(dir, "figure"+string(rune('0'+i))+".svg")
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s", p)
		}
	}
}

// TestRunCheckpointReplay smoke-tests -checkpoint: a second run against the
// same journal replays every attack (identical table, journaled runtimes and
// all) and a journal from different run parameters is refused.
func TestRunCheckpointReplay(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-table", "3", "-scale", "0.02", "-sources", "1", "-rank", "6", "-workers", "1", "-checkpoint", ckpt}
	first, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("first run: %v\n%s", err, first)
	}
	if info, err := os.Stat(ckpt); err != nil || info.Size() == 0 {
		t.Fatalf("journal missing or empty after run: %v", err)
	}
	second, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("replay run: %v\n%s", err, second)
	}
	if first != second {
		t.Errorf("replayed table differs from original:\n--- first\n%s\n--- second\n%s", first, second)
	}
	// A different seed means different units: the journal must be refused.
	bad := []string{"-table", "3", "-scale", "0.02", "-sources", "1", "-rank", "6", "-seed", "2", "-checkpoint", ckpt}
	if _, err := capture(t, func() error { return run(bad) }); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
}

// TestRunTimeoutFlag smoke-tests -timeout: an absurdly small per-attack
// deadline must not crash the run; failed attacks land in the failure
// columns instead.
func TestRunTimeoutFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-table", "3", "-scale", "0.02", "-sources", "1", "-rank", "6", "-workers", "1", "-timeout", "1ns"})
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "TABLE III") {
		t.Errorf("output missing table:\n%s", out)
	}
}

func TestRunNothingToDo(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-op invocation should error with usage")
	}
}

func TestRunRejectsRankBelowOne(t *testing.T) {
	if err := run([]string{"-table", "3", "-scale", "0.02", "-rank", "0"}); err == nil {
		t.Error("-rank 0 accepted")
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRoman(t *testing.T) {
	tests := map[int]string{1: "I", 4: "IV", 9: "IX", 10: "X", 42: "42"}
	for n, want := range tests {
		if got := roman(n); got != want {
			t.Errorf("roman(%d) = %q, want %q", n, got, want)
		}
	}
}
