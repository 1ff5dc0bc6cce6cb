package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"altroute/internal/audit"
	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/roadnet"
)

// zeroRuntimes clears the one wall-clock-dependent field so tables can be
// compared bit-for-bit.
func zeroRuntimes(t Table) Table {
	cells := make([]Cell, len(t.Cells))
	copy(cells, t.Cells)
	for i := range cells {
		cells[i].AvgRuntimeS = 0
	}
	t.Cells = cells
	return t
}

func testHeader() Header {
	return Header{Seed: 11, Scale: 0.015, PathRank: 8, Sources: 2}
}

// unchain blanks the chain fields Append stamps onto a record, so journaled
// records can be compared against the inputs they were built from.
func unchain(r Record) Record {
	r.Prev, r.Hash = "", ""
	return r
}

func TestCheckpointKillAndResumeBitIdentical(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge, core.AlgGreedyEig}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform, roadnet.CostLanes}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: one uninterrupted run on one worker, no checkpoint.
	want, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 1)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: "kill" the run mid-table. An injected stall on the 5th
	// attack round hangs until the run deadline expires, deterministically
	// interrupting the single worker partway through the grid.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	ctx = faultinject.With(ctx, faultinject.New(1).Arm(faultinject.PointAttackStall, faultinject.Rule{OnHit: 5}))
	spec.Checkpoint = ckpt
	partial, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, 1)
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("phase 1 err = %v, want ErrInterrupted", err)
	}
	if len(partial.Cells) != len(want.Cells) {
		t.Fatalf("partial table has %d cells, want all %d", len(partial.Cells), len(want.Cells))
	}
	if last := partial.Cells[len(partial.Cells)-1]; last.Runs+last.Failures == len(units) {
		t.Fatal("phase 1 was not actually interrupted mid-grid")
	}
	journaled := ckpt.Len()
	if journaled == 0 {
		t.Fatal("phase 1 journaled nothing")
	}
	if journaled >= len(want.Cells)*len(units) {
		t.Fatalf("phase 1 journaled everything (%d records); the kill came too late", journaled)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume from the journal with a fresh process-equivalent
	// checkpoint handle and no faults.
	ckpt2, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ckpt2.Close()
	if ckpt2.Len() != journaled {
		t.Fatalf("reopened journal has %d records, want %d", ckpt2.Len(), journaled)
	}
	spec.Checkpoint = ckpt2
	got, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 1)
	if err != nil {
		t.Fatalf("phase 2: %v", err)
	}

	if !reflect.DeepEqual(zeroRuntimes(got), zeroRuntimes(want)) {
		t.Errorf("resumed table differs from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}

	// A third run replays everything from the journal: no attack executes.
	before := ckpt2.Len()
	again, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt2.Len() != before {
		t.Errorf("full replay appended %d new records", ckpt2.Len()-before)
	}
	if !reflect.DeepEqual(again, got) {
		t.Error("full replay differs from the resumed run (runtimes must come from the journal)")
	}
}

// TestCheckpointParallelResumeMatchesSerial interrupts and resumes a
// two-worker run and compares it with one worker (serial) on a separately
// built network.
func TestCheckpointParallelResumeMatchesSerial(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	refNet, _ := buildSmall(t)
	want, err := RunTableOnUnitsParallelCtx(context.Background(), refNet, units, spec, 1)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	spec.Checkpoint = ckpt

	// Interrupt a parallel run, then resume in parallel too.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	ctx = faultinject.With(ctx, faultinject.New(1).Arm(faultinject.PointAttackStall, faultinject.Rule{OnHit: 3}))
	if _, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, 2); !errors.Is(err, ErrInterrupted) {
		cancel()
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	cancel()
	got, err := RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroRuntimes(got), zeroRuntimes(want)) {
		t.Errorf("parallel resume differs from serial run:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestCheckpointHeaderMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	other := testHeader()
	other.Seed++
	if _, err := OpenCheckpoint(path, other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestCheckpointTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{City: "Boston", Weight: "TIME", Algorithm: "GreedyEdge", CostType: "UNIFORM", Unit: 0, OK: true, Edges: 2, Cost: 2}
	if err := ckpt.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: a torn, unterminated record line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"record":{"city":"Bos`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 {
		t.Fatalf("records = %d, want 1 (torn tail dropped)", reopened.Len())
	}
	if got, ok := reopened.Lookup("Boston", "TIME", "GreedyEdge", "UNIFORM", 0); !ok || unchain(got) != rec {
		t.Errorf("Lookup = %+v, %v; want the intact record", got, ok)
	}
	// The journal must still be appendable after a torn tail: a resumed run
	// writes records on their own fresh lines.
	rec2 := rec
	rec2.Unit = 1
	if err := reopened.Append(rec2); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if got, ok := final.Lookup("Boston", "TIME", "GreedyEdge", "UNIFORM", 1); !ok || unchain(got) != rec2 {
		t.Errorf("post-tear append lost on reopen: %+v, %v", got, ok)
	}
}

// TestCheckpointTornHeaderHeals kills the journal mid-write of its very
// first line — the header itself is torn, so nothing in the file is
// usable. Open must truncate-heal to empty and re-seed a fresh header
// rather than refuse with ErrCheckpointMismatch.
func TestCheckpointTornHeaderHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte(`{"header":{"seed":1,"sc`), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatalf("open over torn header = %v, want heal", err)
	}
	rec := Record{City: "Boston", Weight: "TIME", Algorithm: "GreedyEdge", CostType: "UNIFORM", Unit: 0, OK: true, Edges: 2, Cost: 2}
	if err := ckpt.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer reopened.Close()
	if got, ok := reopened.Lookup("Boston", "TIME", "GreedyEdge", "UNIFORM", 0); !ok || unchain(got) != rec {
		t.Errorf("Lookup after heal = %+v, %v; want the appended record", got, ok)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if !json.Valid(ln) {
			t.Errorf("line %d is not valid JSON after the heal: %q", i+1, ln)
		}
	}
}

// TestCheckpointTornTailTruncated asserts the heal truncates the torn
// final line off the file instead of leaving a tear scar in place.
func TestCheckpointTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte{}, clean...), `{"record":{"city":"Bos`...), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, clean) {
		t.Errorf("healed journal = %q, want the pre-tear bytes %q", healed, clean)
	}
}

// TestCheckpointDetectsTamper alters and deletes chained journal records
// and asserts reopening refuses with audit.ErrChainBroken — resuming over
// a doctored journal would launder the alteration into served results.
func TestCheckpointDetectsTamper(t *testing.T) {
	build := func(t *testing.T) (string, []Record) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		ckpt, err := OpenCheckpoint(path, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		var recs []Record
		for unit := 0; unit < 3; unit++ {
			r := Record{City: "Boston", Weight: "TIME", Algorithm: "GreedyEdge", CostType: "UNIFORM", Unit: unit, OK: true, Edges: 2 + unit, Cost: 2}
			if err := ckpt.Append(r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		if err := ckpt.Close(); err != nil {
			t.Fatal(err)
		}
		return path, recs
	}

	t.Run("AlteredRecord", func(t *testing.T) {
		path, _ := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doctored := bytes.Replace(data, []byte(`"edges":3`), []byte(`"edges":9`), 1)
		if bytes.Equal(doctored, data) {
			t.Fatal("tamper target not found in journal")
		}
		if err := os.WriteFile(path, doctored, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, testHeader()); !errors.Is(err, audit.ErrChainBroken) {
			t.Errorf("reopen of altered journal = %v, want ErrChainBroken", err)
		}
	})

	t.Run("DeletedInteriorRecord", func(t *testing.T) {
		path, _ := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		// lines: header, rec0, rec1, rec2, "" — drop rec1.
		doctored := bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil)
		if err := os.WriteFile(path, doctored, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, testHeader()); !errors.Is(err, audit.ErrChainBroken) {
			t.Errorf("reopen of journal with deleted record = %v, want ErrChainBroken", err)
		}
	})

	t.Run("DroppedTailIsInvisible", func(t *testing.T) {
		// Removing the final record is indistinguishable from a crash that
		// never wrote it — the documented detectability boundary.
		path, _ := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if err := os.WriteFile(path, bytes.Join(lines[:3], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		ckpt, err := OpenCheckpoint(path, testHeader())
		if err != nil {
			t.Fatalf("reopen after tail drop = %v, want nil", err)
		}
		defer ckpt.Close()
		if ckpt.Len() != 2 {
			t.Errorf("Len = %d, want 2", ckpt.Len())
		}
	})
}

// TestCheckpointLegacyUnchainedTolerated pins backward compatibility: a
// journal written before chaining (records without hashes) still loads,
// and new appends start the chain after it.
func TestCheckpointLegacyUnchainedTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	legacy := `{"header":{"seed":11,"scale":0.015,"path_rank":8,"sources":2}}
{"record":{"city":"Boston","weight":"TIME","algorithm":"GreedyEdge","cost_type":"UNIFORM","unit":0,"ok":true,"edges":2,"cost":2}}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatalf("open legacy journal: %v", err)
	}
	if ckpt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ckpt.Len())
	}
	rec2 := Record{City: "Boston", Weight: "TIME", Algorithm: "GreedyEdge", CostType: "UNIFORM", Unit: 1, OK: true, Edges: 3, Cost: 2}
	if err := ckpt.Append(rec2); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatalf("reopen mixed legacy/chained journal: %v", err)
	}
	defer reopened.Close()
	if got, ok := reopened.Lookup("Boston", "TIME", "GreedyEdge", "UNIFORM", 1); !ok || unchain(got) != rec2 {
		t.Errorf("chained record after legacy prefix: %+v, %v", got, ok)
	}
}

func TestCheckpointNilSafe(t *testing.T) {
	var c *Checkpoint
	if _, ok := c.Lookup("x", "y", "z", "w", 0); ok {
		t.Error("nil checkpoint Lookup hit")
	}
	if err := c.Append(Record{}); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if c.Len() != 0 {
		t.Error("nil Len != 0")
	}
}
