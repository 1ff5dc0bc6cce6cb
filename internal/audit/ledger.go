package audit

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"altroute/internal/faultinject"
)

// ledgerFile is the active JSONL file name inside the ledger directory.
// Rotation renames it into numbered sealed segments (see segment.go).
const ledgerFile = "ledger.jsonl"

// Config configures a Ledger. Dir is required; every other field has a
// default noted on it.
type Config struct {
	// Dir is the ledger directory (created if missing). The active file
	// is Dir/ledger.jsonl; rotation and compaction add segment-*.jsonl
	// and compact.jsonl next to it.
	Dir string
	// FlushEvery is the group-commit time bound: pending records are
	// sealed and fsynced at least this often. Default 100ms.
	FlushEvery time.Duration
	// FlushRecords is the group-commit size bound: a batch reaching this
	// many pending records is sealed without waiting for the timer.
	// Default 64.
	FlushRecords int
	// SyncEachRecord seals and fsyncs after every single record — the
	// naive tamper-evident ledger the group commit replaces. It exists as
	// the benchmark baseline and for operators who want zero crash-loss
	// at full fsync cost.
	SyncEachRecord bool
	// RotateBytes rotates the active file into an immutable sealed
	// segment at the first seal boundary at or past this size. 0 (the
	// default) never rotates — the single-file ledger.
	RotateBytes int64
	// CompactKeep bounds disk and memory for unbounded uptime: when more
	// than this many sealed segments exist, the oldest are compacted
	// into the Merkle-checkpoint stub. 0 (the default) never compacts.
	CompactKeep int
	// Clock stamps records and measures flush latency. Default time.Now.
	Clock func() time.Time
	// Injector, when non-nil, arms the audit disk-fault points
	// (PointAuditWrite, PointAuditFsync, PointAuditRotate,
	// PointAuditCompact) for chaos tests.
	Injector *faultinject.Injector
}

func (c *Config) fill() {
	if c.FlushEvery <= 0 {
		c.FlushEvery = 100 * time.Millisecond
	}
	if c.FlushRecords <= 0 {
		c.FlushRecords = 64
	}
	if c.Clock == nil {
		c.Clock = func() time.Time { return time.Now() } //lint:allow wallclock audit records carry real timestamps; tests inject fixed clocks
	}
}

// Receipt identifies an appended record: its ledger position and chain
// hash. Clients quote the Seq back at GET /v1/audit/{seq}/proof.
type Receipt struct {
	Seq  uint64 `json:"seq"`
	Hash string `json:"hash"`
}

// sealedBatch pairs a seal with its leaf hashes, kept for proof building.
type sealedBatch struct {
	seal   Seal
	leaves [][sha256.Size]byte
}

// Stats is a point-in-time snapshot of the ledger, exported on /healthz.
type Stats struct {
	// Records is the total record count (the next Seq to be assigned).
	Records uint64 `json:"records"`
	// RecordHead and SealHead are the two chain heads.
	RecordHead string `json:"record_head"`
	SealHead   string `json:"seal_head,omitempty"`
	// SealedBatches and SealedRecords count the proof-carrying history;
	// Pending is the unsealed tail a crash may lose.
	SealedBatches uint64 `json:"sealed_batches"`
	SealedRecords uint64 `json:"sealed_records"`
	Pending       int    `json:"pending_records"`
	// Segments counts live sealed segment files; the Compacted* fields
	// bound the stub-summarized range (records [0, CompactedRecords)).
	Segments          int    `json:"segments"`
	CompactedSegments int    `json:"compacted_segments,omitempty"`
	CompactedRecords  uint64 `json:"compacted_records,omitempty"`
	CompactedBatches  uint64 `json:"compacted_batches,omitempty"`
	Rotations         uint64 `json:"rotations,omitempty"`
	Compactions       uint64 `json:"compactions,omitempty"`
	// RotateErrors and CompactErrors count deferred (retried) rotation
	// and compaction attempts — degradations, not failures: the data
	// stays intact and oversized until a retry lands.
	RotateErrors  uint64 `json:"rotate_errors,omitempty"`
	CompactErrors uint64 `json:"compact_errors,omitempty"`
	// Appended and Fsyncs count this process's work; their ratio
	// (RecordsPerFsync) is the group-commit win over per-record fsync,
	// which would pin it at 1.
	Appended        uint64  `json:"appended"`
	Fsyncs          uint64  `json:"fsyncs"`
	RecordsPerFsync float64 `json:"records_per_fsync"`
	// LastFlushMS is the fsync latency of the most recent group commit.
	LastFlushMS float64 `json:"last_flush_ms"`
	// Error carries the sticky failure when the ledger is poisoned.
	Error string `json:"error,omitempty"`
}

// Ledger is the tamper-evident result ledger. Open it with Open; Append
// is safe for concurrent use. A background supervisor group-commits
// pending records on the Config bounds and also drives compaction once
// rotation has built up enough segments; Close flushes the tail and
// stops it.
type Ledger struct {
	cfg        Config
	dir        string
	activePath string
	stubPath   string

	mu          sync.Mutex
	f           *os.File
	w           *bufio.Writer
	activeBytes int64 // bytes durably line-complete in the active file
	nextSeg     int   // index the active file takes at the next rotation
	baseSeq     uint64
	baseBatch   uint64
	stub        *CompactStub
	segs        []segmentInfo
	seq         uint64 // next record seq
	recHead     string
	sealHead    string
	records     []Record            // records[seq-baseSeq]
	batches     []sealedBatch       // batches[batch-baseBatch]
	pending     [][sha256.Size]byte // leaves since the last seal
	dirty       bool                // sealed bytes not yet fsynced
	failed      error               // sticky ErrLedgerFailed
	closed      bool
	compacting  bool

	appended    uint64
	fsyncs      uint64
	rotations   uint64
	compactions uint64
	rotateErrs  uint64
	compactErrs uint64
	lastFlush   time.Duration

	// syncMu serializes fsyncs; they deliberately run OUTSIDE mu so the
	// append hot path never waits on the disk, even mid group commit.
	syncMu  sync.Mutex
	kick    chan struct{}
	stop    chan struct{}
	flusher sync.WaitGroup
}

// Open opens (or creates) the ledger in cfg.Dir, replaying and verifying
// the whole stream — compaction stub, sealed segments, active file — as
// one chain. Crash artifacts self-heal: a torn final line is truncated
// (the lost record is part of the unsealed tail the crash window may
// cost), stray temp files and stub-covered segments from an interrupted
// compaction are removed, and a truncation that left the stream tail in
// a sealed segment un-rotates it back into the active file. Any other
// violation returns a *ChainError wrapping ErrChainBroken, and the
// caller must refuse to build on the directory.
func Open(cfg Config) (*Ledger, error) { //lint:allow ctxflow replay is linear in the on-disk ledger and runs once at open; recovery is not cancellable mid-verification
	cfg.fill()
	if cfg.Dir == "" {
		return nil, errors.New("audit: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	ds, err := replayDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	// Heal crash artifacts, least- to most-entangled. Stray .tmp files
	// are an interrupted atomic write (pre-rename, so contentless);
	// stub-covered segments are an interrupted compaction whose stub
	// already became authoritative.
	for _, p := range ds.lay.leftover {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("audit: healing temp file: %w", err)
		}
	}
	for _, p := range ds.covered {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("audit: finishing interrupted compaction: %w", err)
		}
	}
	if len(ds.lay.leftover)+len(ds.covered) > 0 {
		if err := SyncDir(cfg.Dir); err != nil {
			return nil, err
		}
	}
	if ds.tornPath != "" {
		// Self-heal: drop the torn fragment so the next record starts on
		// a clean line. Only the unsealed tail can be lost this way.
		if err := TruncateSynced(ds.tornPath, ds.tornStart); err != nil {
			return nil, fmt.Errorf("audit: healing torn tail: %w", err)
		}
	}
	activePath := filepath.Join(cfg.Dir, ledgerFile)
	activeBytes := ds.activeBytes
	segs := ds.segEnds
	unrotated := false
	if len(segs) > 0 && activeBytes == 0 && len(ds.pendingLeaves) > 0 {
		// The stream's unsealed tail lives in the last sealed segment —
		// a truncation (torn or clean) cut it mid-batch and the active
		// file holds nothing. Segments must stay immutable and end at
		// seal boundaries, so the segment becomes the active file again;
		// the next rotation re-seals it under the same index.
		last := segs[len(segs)-1]
		if err := os.Rename(last.path, activePath); err != nil {
			return nil, fmt.Errorf("audit: un-rotating truncated segment: %w", err)
		}
		if err := SyncDir(cfg.Dir); err != nil {
			return nil, err
		}
		fi, err := os.Stat(activePath)
		if err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		activeBytes = fi.Size()
		segs = segs[:len(segs)-1]
		unrotated = true
	}
	nextSeg := 0
	if ds.stub != nil {
		nextSeg = ds.stub.Segments
	}
	if len(segs) > 0 {
		nextSeg = segs[len(segs)-1].index + 1
	}
	if unrotated {
		// The un-rotated file reclaims its old index.
		nextSeg = ds.segEnds[len(ds.segEnds)-1].index
	}
	f, err := os.OpenFile(activePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	l := &Ledger{
		cfg:         cfg,
		dir:         cfg.Dir,
		activePath:  activePath,
		stubPath:    filepath.Join(cfg.Dir, stubFile),
		f:           f,
		w:           bufio.NewWriter(f),
		activeBytes: activeBytes,
		nextSeg:     nextSeg,
		baseSeq:     ds.baseSeq,
		baseBatch:   ds.baseBatch,
		stub:        ds.stub,
		segs:        segs,
		seq:         ds.totalRecords(),
		recHead:     ds.recHead,
		sealHead:    ds.sealHead,
		records:     ds.records,
		batches:     ds.batches,
		pending:     ds.pendingLeaves,
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	if !cfg.SyncEachRecord {
		l.flusher.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// flushLoop is the durability supervisor. Every FlushEvery it seals
// whatever is pending — bounding the crash-loss window in time the same
// way FlushRecords bounds it in count. On every tick and every kick it
// runs each fsync the append path deferred and compacts when rotation
// has built up enough sealed segments. A kick never seals: the batch it
// was sent for is already sealed, and sealing a partial batch at whatever
// moment this goroutine wakes would make batch boundaries depend on
// scheduling. Errors are sticky in l.failed; the loop keeps draining so a
// poisoned ledger still reports through Err rather than wedging.
func (l *Ledger) flushLoop() {
	defer l.flusher.Done()
	t := time.NewTicker(l.cfg.FlushEvery)
	defer t.Stop()
	for {
		tick := false
		select {
		case <-l.stop:
			return
		case <-t.C:
			tick = true
		case <-l.kick:
		}
		l.mu.Lock()
		if tick {
			_ = l.sealLocked()
		}
		wantCompact := l.cfg.CompactKeep > 0 && len(l.segs) > l.cfg.CompactKeep && l.failed == nil
		l.mu.Unlock()
		_ = l.syncDirty()
		if wantCompact {
			_ = l.compactOnce(l.cfg.CompactKeep)
		}
	}
}

// Append chains and writes one record, returning its receipt. The line
// reaches the OS before Append returns, but is only fsynced by the next
// group commit — the whole point of the batcher is that the request hot
// path never waits on the disk. A record that fills the batch seals it
// inline (batch boundaries stay deterministic) and hands the fsync to the
// background flusher. With SyncEachRecord the record is sealed and
// fsynced before Append returns.
func (l *Ledger) Append(rec Record) (Receipt, error) {
	r, sealed, err := l.appendLocked(rec)
	if err != nil {
		return Receipt{}, err
	}
	if sealed {
		if l.cfg.SyncEachRecord {
			if err := l.syncDirty(); err != nil {
				return Receipt{}, err
			}
		} else {
			select {
			case l.kick <- struct{}{}:
			default: // a wake-up is already queued
			}
		}
	}
	return r, nil
}

// appendLocked is Append's critical section: chain, write, and (at a
// batch boundary) seal — everything except the fsync, which must not run
// under l.mu. The bool reports whether this append sealed a batch. Any
// write failure, a full disk included, poisons the ledger: no record may
// be served unaudited.
func (l *Ledger) appendLocked(rec Record) (Receipt, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Receipt{}, false, errors.New("audit: ledger is closed")
	}
	if l.failed != nil {
		return Receipt{}, false, l.failed
	}
	rec.Seq = l.seq
	rec.TimeNS = l.cfg.Clock().UnixNano()
	rec.Prev = l.recHead
	h, err := recordHash(rec)
	if err != nil {
		return Receipt{}, false, err
	}
	rec.Hash = h
	leaf, err := leafHash(h)
	if err != nil {
		return Receipt{}, false, err
	}
	b, err := json.Marshal(entry{Record: &rec})
	if err != nil {
		return Receipt{}, false, fmt.Errorf("audit: %w", err)
	}
	if err := l.writeLine(b); err != nil {
		return Receipt{}, false, l.fail(err)
	}
	l.seq++
	l.recHead = h
	l.records = append(l.records, rec)
	l.pending = append(l.pending, leaf)
	l.appended++
	sealed := false
	if l.cfg.SyncEachRecord || len(l.pending) >= l.cfg.FlushRecords {
		if err := l.sealLocked(); err != nil {
			return Receipt{}, false, err
		}
		sealed = true
	}
	return Receipt{Seq: rec.Seq, Hash: h}, sealed, nil
}

// writeLine writes one JSONL line through the disk-fault probes and
// flushes it to the OS, advancing activeBytes on success. Errors are
// returned raw; the callers poison the ledger with them.
func (l *Ledger) writeLine(b []byte) error {
	b = append(b, '\n')
	if err := l.cfg.Injector.Probe(faultinject.PointAuditWrite); err != nil {
		// Model a failed write, a full disk among them: a prefix of the
		// line lands, the rest does not.
		_, _ = l.w.Write(b[:len(b)/2])
		_ = l.w.Flush()
		return err
	}
	if _, err := l.w.Write(b); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.activeBytes += int64(len(b))
	return nil
}

// fail records the sticky failure and returns it.
func (l *Ledger) fail(err error) error {
	l.failed = fmt.Errorf("%w: %w", ErrLedgerFailed, err)
	return l.failed
}

// Flush seals the pending records into one batch now — Merkle root, seal
// line, one fsync — and waits for the fsync, also covering any batch the
// append path sealed but had not yet synced. No-op when nothing is
// pending or dirty.
func (l *Ledger) Flush() error {
	l.mu.Lock()
	err := l.sealLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.syncDirty()
}

// sealLocked is the group commit's first half: Merkle root and seal line,
// written through to the OS. The batch becomes provable immediately — its
// durability is OS-level until syncDirty lands the fsync, the same
// guarantee a record's receipt carries between group commits. When the
// active file has outgrown RotateBytes the fresh seal boundary is also
// the rotation point. Callers hold l.mu.
func (l *Ledger) sealLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if len(l.pending) == 0 {
		return nil
	}
	root := merkleRoot(l.pending)
	seal := Seal{
		Batch:    l.baseBatch + uint64(len(l.batches)),
		FirstSeq: l.seq - uint64(len(l.pending)),
		Count:    len(l.pending),
		Root:     hex.EncodeToString(root[:]),
		Prev:     l.sealHead,
	}
	h, err := sealHash(seal)
	if err != nil {
		return err
	}
	seal.Hash = h
	b, err := json.Marshal(entry{Seal: &seal})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if err := l.writeLine(b); err != nil {
		return l.fail(err)
	}
	leaves := make([][sha256.Size]byte, len(l.pending))
	copy(leaves, l.pending)
	l.batches = append(l.batches, sealedBatch{seal: seal, leaves: leaves})
	l.sealHead = seal.Hash
	l.pending = l.pending[:0]
	l.dirty = true
	if l.cfg.RotateBytes > 0 && l.activeBytes >= l.cfg.RotateBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked retires the active file into an immutable sealed segment:
// fsync it (everything in it must be durable before it is declared
// immutable), rename it to its segment name with a directory sync, and
// open a fresh active file. Runs only at a seal boundary, under l.mu. A
// rename refusal (including the injected rotate fault) is a declared
// degrade, not a failure: the oversized file simply stays active and
// rotation retries at the next seal.
func (l *Ledger) rotateLocked() error {
	if err := l.cfg.Injector.Probe(faultinject.PointAuditRotate); err != nil {
		l.rotateErrs++
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.fsyncs++
	segPath := filepath.Join(l.dir, segmentName(l.nextSeg))
	if err := os.Rename(l.activePath, segPath); err != nil {
		l.rotateErrs++
		return nil
	}
	if err := SyncDir(l.dir); err != nil {
		// The rename happened but may not be durable, and the in-memory
		// layout can no longer assume either name. Poison; reopen
		// replays whichever layout the disk kept.
		return l.fail(err)
	}
	old := l.f
	f, err := os.OpenFile(l.activePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The tail is sealed away and appends have nowhere to go.
		_ = old.Close()
		return l.fail(err)
	}
	_ = old.Close()
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segs = append(l.segs, segmentInfo{
		index:   l.nextSeg,
		path:    segPath,
		records: l.seq,
		batches: l.baseBatch + uint64(len(l.batches)),
		recHead: l.recHead,
	})
	l.nextSeg++
	l.rotations++
	l.dirty = false // the old file was fsynced; the new one is empty
	l.activeBytes = 0
	return nil
}

// syncDirty is the group commit's second half: one fsync covering every
// sealed-but-unsynced byte. It runs under syncMu only, so appends (and
// further seals) proceed while the disk works; a seal that lands mid-sync
// keeps dirty set for the next round. A failed fsync poisons the ledger
// at once and is never retried: the kernel may already have dropped the
// dirty pages and marked them clean, so a retry that succeeds would
// claim durability for bytes that never reached the disk. A rotation
// landing mid-sync makes the outcome moot (rotation fsyncs the old file
// before renaming it).
func (l *Ledger) syncDirty() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if !l.dirty {
		l.mu.Unlock()
		return nil
	}
	synced := len(l.batches)
	f := l.f
	rotGen := l.rotations
	l.mu.Unlock()

	start := l.cfg.Clock()
	serr := l.cfg.Injector.Probe(faultinject.PointAuditFsync)
	if serr == nil {
		serr = f.Sync()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if serr != nil {
		if l.rotations != rotGen {
			// The file we were syncing was rotated away mid-sync; the
			// rotation fsynced it before renaming, so those bytes are
			// durable and this error (often "file already closed") says
			// nothing about the new active file.
			return nil
		}
		return l.fail(serr)
	}
	if len(l.batches) == synced && l.rotations == rotGen {
		l.dirty = false
	}
	l.fsyncs++
	l.lastFlush = l.cfg.Clock().Sub(start)
	return nil
}

// compactOnce summarizes all but the keep newest sealed segments into
// the checkpoint stub and deletes their files. The protocol is
// stub-first (write+rename, then remove segments), so a crash at any
// point leaves either the old state or a healable leftover — never a
// range with neither bytes nor summary. IO runs outside l.mu: segments
// are immutable and only one compaction runs at a time. A compaction
// failure is a declared degrade (data intact, disk not yet reclaimed),
// counted and retried at the next trigger — never sticky.
func (l *Ledger) compactOnce(keep int) error {
	l.mu.Lock()
	if l.closed || l.failed != nil || l.compacting {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	n := len(l.segs) - keep
	if n <= 0 {
		l.mu.Unlock()
		return nil
	}
	last := l.segs[n-1]
	if last.batches == 0 {
		l.mu.Unlock()
		return nil
	}
	stub := CompactStub{
		Segments:   last.index + 1,
		Records:    last.records,
		Batches:    last.batches,
		RecordHead: last.recHead,
		Seal:       l.batches[last.batches-1-l.baseBatch].seal,
	}
	h, err := stubHash(stub)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	stub.Hash = h
	drop := make([]string, n)
	for i := range drop {
		drop[i] = l.segs[i].path
	}
	l.compacting = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.compacting = false
		l.mu.Unlock()
	}()

	if err := l.cfg.Injector.Probe(faultinject.PointAuditCompact); err != nil {
		return l.noteCompactErr(err)
	}
	if err := writeStub(l.stubPath, stub); err != nil {
		return l.noteCompactErr(err)
	}
	for _, p := range drop {
		if err := os.Remove(p); err != nil {
			// The stub is already authoritative; the leftover segment is
			// redundant and the next Open (or retry) removes it.
			return l.noteCompactErr(err)
		}
	}
	if err := SyncDir(l.dir); err != nil {
		return l.noteCompactErr(err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.stub = &stub
	l.records = append([]Record(nil), l.records[stub.Records-l.baseSeq:]...)
	l.batches = append([]sealedBatch(nil), l.batches[stub.Batches-l.baseBatch:]...)
	l.baseSeq = stub.Records
	l.baseBatch = stub.Batches
	l.segs = append([]segmentInfo(nil), l.segs[n:]...)
	l.compactions++
	return nil
}

// Compact forces a compaction pass now, keeping the keep newest sealed
// segments (0 compacts every sealed segment). The active file is never
// compacted. Exposed for operators and tests; the supervisor normally
// compacts automatically past Config.CompactKeep.
func (l *Ledger) Compact(keep int) error {
	if keep < 0 {
		keep = 0
	}
	return l.compactOnce(keep)
}

func (l *Ledger) noteCompactErr(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactErrs++
	return fmt.Errorf("audit: compaction deferred: %w", err)
}

// Close seals the tail, stops the supervisor, syncs, and closes the
// file. A failed ledger still closes its file; the sticky error is
// returned.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.flusher.Wait()

	l.mu.Lock()
	ferr := l.sealLocked()
	l.mu.Unlock()
	if serr := l.syncDirty(); ferr == nil {
		ferr = serr
	}
	l.mu.Lock()
	cerr := l.f.Close()
	l.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return fmt.Errorf("audit: %w", cerr)
	}
	return nil
}

// Err returns the sticky failure, if any. A non-nil Err means the file
// and the in-memory chain may disagree; the service must stop serving
// until the ledger is reopened (which re-verifies and self-heals).
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Head returns the next sequence number and the record-chain head.
func (l *Ledger) Head() (uint64, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.recHead
}

// Record returns the record at seq, if its bytes are still held (a
// compacted record is not).
func (l *Ledger) Record(seq uint64) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.baseSeq || seq >= l.seq {
		return Record{}, false
	}
	return l.records[seq-l.baseSeq], true
}

// Proof builds the inclusion proof for a sealed record. ErrNotFound for
// a never-assigned seq; ErrUnsealed for a record still waiting for its
// group commit (retry after the flush interval); ErrCompacted for a
// record whose batch was compacted into the stub — its leaves are gone,
// vouched for only by the retained seal.
func (l *Ledger) Proof(seq uint64) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.seq {
		return Proof{}, fmt.Errorf("%w: seq %d (head %d)", ErrNotFound, seq, l.seq)
	}
	if seq < l.baseSeq {
		return Proof{}, fmt.Errorf("%w: seq %d (compacted through %d)", ErrCompacted, seq, l.baseSeq)
	}
	sealed := l.seq - uint64(len(l.pending))
	if seq >= sealed {
		return Proof{}, fmt.Errorf("%w: seq %d is in the pending tail (sealed through %d)", ErrUnsealed, seq, sealed)
	}
	// Batches cover contiguous ranges, so the owning batch is the first
	// whose range ends past seq.
	i := sort.Search(len(l.batches), func(i int) bool {
		s := l.batches[i].seal
		return s.FirstSeq+uint64(s.Count) > seq
	})
	batch := l.batches[i]
	idx := int(seq - batch.seal.FirstSeq)
	rec := l.records[seq-l.baseSeq]
	leaf, err := leafHash(rec.Hash)
	if err != nil {
		return Proof{}, err
	}
	return Proof{
		Seq:      seq,
		Record:   rec,
		LeafHash: hex.EncodeToString(leaf[:]),
		Index:    idx,
		Path:     merklePath(batch.leaves, idx),
		Seal:     batch.seal,
	}, nil
}

// Stats snapshots the ledger counters.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Records:       l.seq,
		RecordHead:    l.recHead,
		SealHead:      l.sealHead,
		SealedBatches: l.baseBatch + uint64(len(l.batches)),
		SealedRecords: l.seq - uint64(len(l.pending)),
		Pending:       len(l.pending),
		Segments:      len(l.segs),
		Rotations:     l.rotations,
		Compactions:   l.compactions,
		RotateErrors:  l.rotateErrs,
		CompactErrors: l.compactErrs,
		Appended:      l.appended,
		Fsyncs:        l.fsyncs,
		LastFlushMS:   float64(l.lastFlush) / float64(time.Millisecond),
	}
	if l.stub != nil {
		st.CompactedSegments = l.stub.Segments
		st.CompactedRecords = l.stub.Records
		st.CompactedBatches = l.stub.Batches
	}
	if l.fsyncs > 0 {
		st.RecordsPerFsync = float64(l.appended) / float64(l.fsyncs)
	}
	if l.failed != nil {
		st.Error = l.failed.Error()
	}
	return st
}
