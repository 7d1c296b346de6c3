// Package wal makes the graph durable: an append-only mutation log with
// CRC32C-checksummed, length-prefixed records, batch-commit markers, a
// configurable fsync policy, and periodic compaction into CSR-codec
// snapshots — a superblock names the live (snapshot, log-suffix) pair, and
// every generation switch goes through atomic renames and directory fsyncs.
// Recovery truncates at the first torn or corrupt record and replays only
// committed batches, so a kill -9 at any point between two filesystem
// operations restores exactly a committed-batch prefix of the history; the
// crash-point sweep in crash_test.go proves that claim at every such point
// under the FaultFS fault injector.
//
// An edge record's position states its validity interval in batch-sequence
// time — the commit marker that seals it is the batch it opens or closes
// at — which makes the log a native time-indexed graph encoding: temporal
// windows load as range scans over the committed suffix
// (temporal.LoadWindow) instead of full rebuilds.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structura/internal/graph"
)

// SyncPolicy picks when Append calls fsync.
type SyncPolicy int

const (
	// SyncEachBatch fsyncs before Append returns: an acknowledged batch is
	// durable. The default, and the policy every durability claim assumes.
	SyncEachBatch SyncPolicy = iota
	// SyncInterval fsyncs every Options.SyncEvery batches: bounded loss
	// window, amortized fsync cost.
	SyncInterval
	// SyncNone never fsyncs from Append; the OS decides. Recovery still
	// yields a committed-batch prefix — just possibly an older one.
	SyncNone
)

// Options tunes a Log. The zero value is usable: OS filesystem, fsync per
// batch, compaction every 1024 batches.
type Options struct {
	// FS is the filesystem; nil means the real one. Tests inject MemFS or
	// FaultFS here.
	FS FS
	// Sync is the fsync policy (default SyncEachBatch).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period in batches (default 8).
	SyncEvery int
	// CompactEvery snapshots and truncates the log after this many
	// committed batches (default 1024; negative disables compaction).
	CompactEvery int
}

func (o *Options) setDefaults() {
	if o.FS == nil {
		o.FS = OS()
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 8
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 1024
	}
}

const superName = "SUPER"

// ErrNoStore is returned by Open when dir holds no initialized store.
var ErrNoStore = errors.New("wal: no store in directory")

// ErrBroken is the sticky state after an append-path disk error: the log
// refuses further appends (the file may end in a torn frame) and the owner
// must re-open the store, which truncates the tail.
var ErrBroken = errors.New("wal: log broken by an earlier write error")

// ErrFenced is returned by Append after MarkFenced: a replica was promoted
// with a higher fencing token, so this store is a deposed primary and its
// writes must be rejected.
var ErrFenced = errors.New("wal: store fenced by a newer primary")

// ErrGenGone is returned by LogChunk when the requested generation has been
// superseded by compaction or restart; the reader must resync from the
// current snapshot.
var ErrGenGone = errors.New("wal: log generation superseded")

// Metrics is a point-in-time snapshot of a Log's counters, safe to read
// concurrently with appends.
type Metrics struct {
	Seq          uint64 // last committed batch sequence
	Records      uint64 // cumulative mutation records (including compacted history)
	Batches      uint64 // batches appended by this process
	Syncs        uint64 // fsync calls issued by Append
	Compactions  uint64 // snapshot+truncate cycles run by this process
	Depth        uint64 // mutation records in the live log suffix
	Gen          uint64 // live log generation
	Fence        uint64 // fencing token this store was opened with
	LabelRecords uint64 // label-delta records appended by this process
	LabelSeq     uint64 // batch seq of the last durable label epoch
	DurableBytes int64  // fsynced byte length of the live log generation
	FsyncTotal   time.Duration
	FsyncMax     time.Duration
}

// Log is the durable side of a mutating graph: the owner appends committed
// mutation batches, the Log keeps an authoritative replica and periodically
// compacts it into a snapshot. A Log is single-writer (the serving layer's
// writer goroutine); Metrics alone may be read concurrently.
type Log struct {
	fsys FS
	dir  string
	opts Options

	g *graph.Graph // authoritative durable replica

	// labels is the last journaled label epoch, retained as it was handed
	// in: the next journal diffs against it and compaction encodes it.
	// Nil until the first AppendLabels or a recovery that found usable
	// labels. labelSeq is the batch it reflects.
	labels    LabelReader
	labelsSum uint32 // checksum of labels, kept only under checkBaselines

	f        File
	snapName string
	logName  string
	gen      uint64 // live generation number (increments every newGeneration)
	fence    uint64 // fencing token (immutable while open; Promote bumps it)

	batchesInLog  int
	unsyncedBatch int
	broken        error
	buf           []byte // reused frame buffer

	// genMu guards the replication-facing view of the live generation: the
	// in-memory byte mirror of the log file, and the (snapName, logName,
	// gen) triple it belongs to. The single writer takes it briefly per
	// append and across generation swaps; sender goroutines take it to
	// copy chunks.
	genMu sync.Mutex
	live  []byte // byte-exact mirror of the live log file (header + frames)

	// The counters Metrics reads. The writer updates them; seq, cum, depth
	// and labelSeq are also its own state, with no second copy.
	seq           atomic.Uint64 // last committed batch
	cum           atomic.Uint64 // cumulative mutation records ever committed
	depth         atomic.Uint64 // mutation records in the live log
	labelSeq      atomic.Uint64 // batch the retained label epoch reflects
	fenced        atomic.Bool   // MarkFenced called; Append rejects
	mDurable      atomic.Int64  // fsynced prefix length of live
	mGen          atomic.Uint64
	mLabelRecs    atomic.Uint64
	mBatches      atomic.Uint64
	mSyncs        atomic.Uint64
	mCompactions  atomic.Uint64
	mFsyncTotalNs atomic.Uint64
	mFsyncMaxNs   atomic.Uint64
}

// Create initializes dir as a fresh store seeded with g (cloned; the
// caller's graph is not retained) at batch sequence 0, and returns the open
// Log. It fails if dir already holds a store.
func Create(dir string, g *graph.Graph, opts Options) (*Log, error) {
	opts.setDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	if _, err := fsys.ReadFile(path.Join(dir, superName)); err == nil {
		return nil, fmt.Errorf("wal: %s already holds a store (use Open)", dir)
	}
	l := &Log{fsys: fsys, dir: dir, opts: opts, g: g.Clone(), fence: 1}
	if err := l.newGeneration(); err != nil {
		return nil, err
	}
	return l, nil
}

// Open recovers the store in dir: it loads the superblock's snapshot,
// replays the committed-batch prefix of the log (truncating at the first
// torn or corrupt record), and starts a fresh generation — so the torn tail,
// if any, is physically discarded. The recovered replica is reachable via
// Graph.
func Open(dir string, opts Options) (*Log, Recovery, error) {
	return openStore(dir, opts, false)
}

// Promote is Open with the fencing token bumped: the caller (a replica
// taking over after primary failure) becomes the new primary, and the old
// primary's stream — carrying the stale token — is rejected everywhere the
// token is checked.
func Promote(dir string, opts Options) (*Log, Recovery, error) {
	return openStore(dir, opts, true)
}

func openStore(dir string, opts Options, bumpFence bool) (*Log, Recovery, error) {
	opts.setDefaults()
	start := time.Now()
	g, rec, err := replayDir(opts.FS, dir, nil)
	if err != nil {
		return nil, rec, err
	}
	l := &Log{
		fsys: opts.FS, dir: dir, opts: opts, g: g,
		gen: rec.Gen, fence: rec.Fence,
	}
	l.seq.Store(rec.Seq)
	l.cum.Store(rec.Records)
	if rec.Labels != nil {
		l.retainLabels(rec.Labels, rec.Labels.Seq)
	}
	if l.fence == 0 {
		l.fence = 1 // v1 superblocks carry no token
	}
	if bumpFence {
		l.fence++
		rec.Fence = l.fence
	}
	if err := l.newGeneration(); err != nil {
		return nil, rec, err
	}
	rec.RecoveryNs = time.Since(start).Nanoseconds()
	return l, rec, nil
}

// OpenOrCreate opens the store in dir if one exists, otherwise creates one
// seeded with g. created reports which path ran.
func OpenOrCreate(dir string, g *graph.Graph, opts Options) (l *Log, rec Recovery, created bool, err error) {
	o := opts
	o.setDefaults()
	if _, rerr := o.FS.ReadFile(path.Join(dir, superName)); rerr != nil {
		if !errors.Is(rerr, os.ErrNotExist) {
			return nil, Recovery{}, false, rerr
		}
		l, err = Create(dir, g, opts)
		return l, Recovery{}, true, err
	}
	l, rec, err = Open(dir, opts)
	return l, rec, false, err
}

// Graph returns the durable replica. It advances only through Append; a
// serving layer's engines share it as their one topology and only read it.
func (l *Log) Graph() *graph.Graph { return l.g }

// Seq returns the last committed batch sequence.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// Dir returns the store directory.
func (l *Log) Dir() string { return l.dir }

// FenceToken returns the fencing token this store was opened with. It is
// immutable for the life of the process; only Promote (a re-open) bumps it.
func (l *Log) FenceToken() uint64 { return l.fence }

// MarkFenced records that a peer with a newer fencing token exists: every
// later Append fails with ErrFenced. Safe from any goroutine (the
// replication client calls it when a replica rejects this primary).
func (l *Log) MarkFenced() { l.fenced.Store(true) }

// Fenced reports whether MarkFenced has been called.
func (l *Log) Fenced() bool { return l.fenced.Load() }

// Metrics returns a consistent-enough snapshot of the log counters; safe
// from any goroutine.
func (l *Log) Metrics() Metrics {
	return Metrics{
		Seq:          l.seq.Load(),
		Records:      l.cum.Load(),
		Batches:      l.mBatches.Load(),
		Syncs:        l.mSyncs.Load(),
		Compactions:  l.mCompactions.Load(),
		Depth:        l.depth.Load(),
		Gen:          l.mGen.Load(),
		Fence:        l.fence,
		LabelRecords: l.mLabelRecs.Load(),
		LabelSeq:     l.labelSeq.Load(),
		DurableBytes: l.mDurable.Load(),
		FsyncTotal:   time.Duration(l.mFsyncTotalNs.Load()),
		FsyncMax:     time.Duration(l.mFsyncMaxNs.Load()),
	}
}

// Append journals one mutation batch of TAddEdge and TRemoveEdge records:
// every record is framed and written, sealed by a commit marker, fsynced
// per policy, and applied to the durable replica under the graph's
// edge-acceptance rule (self-loops, duplicate adds, and missing removes are
// logged but not applied — replay makes the same decisions). The commit
// marker's batch sequence is every record's validity bound: adds open at
// it, removes close at it. It returns the committed batch sequence; a
// record of any other type fails the batch before anything is written.
//
// Any filesystem error marks the log broken: the batch must be considered
// not durable, and every later Append fails with ErrBroken until the store
// is re-opened (which truncates the torn tail).
func (l *Log) Append(recs []Record) (uint64, error) {
	if l.broken != nil {
		return 0, ErrBroken
	}
	if l.fenced.Load() {
		return 0, ErrFenced
	}
	if len(recs) == 0 {
		return l.seq.Load(), nil
	}
	seq := l.seq.Load() + 1
	buf := l.buf[:0]
	for _, r := range recs {
		if r.Type != TAddEdge && r.Type != TRemoveEdge {
			return 0, fmt.Errorf("wal: Append takes edge records only, not type %d (commit markers are the log's own, labels go through AppendLabels)", r.Type)
		}
		buf = appendFrame(buf, r)
	}
	buf = appendFrame(buf, Record{Type: TCommit, Seq: seq, Count: uint32(len(recs))})
	l.buf = buf[:0]

	if err := l.write(buf); err != nil {
		return 0, fmt.Errorf("wal: append batch %d: %w", seq, err)
	}
	if err := l.maybeSync(); err != nil {
		return 0, fmt.Errorf("wal: fsync batch %d: %w", seq, err)
	}

	// The write is down; commit the batch to the replica.
	for _, r := range recs {
		applyRecord(l.g, r)
	}
	l.seq.Store(seq)
	l.cum.Add(uint64(len(recs)))
	l.depth.Add(uint64(len(recs)))
	l.batchesInLog++
	l.mBatches.Add(1)

	if l.opts.CompactEvery > 0 && l.batchesInLog >= l.opts.CompactEvery {
		if err := l.compact(); err != nil {
			l.broken = err
			return 0, fmt.Errorf("wal: compact at batch %d: %w", seq, err)
		}
	}
	return seq, nil
}

// write appends buf to the live log file and its in-memory byte mirror
// (the replication sender's source), marking the log broken on error.
func (l *Log) write(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		l.broken = err
		return err
	}
	l.genMu.Lock()
	l.live = append(l.live, buf...)
	l.genMu.Unlock()
	return nil
}

// maybeSync counts one appended batch against the fsync policy and, when
// the policy fires, fsyncs and publishes the new durable offset.
func (l *Log) maybeSync() error {
	l.unsyncedBatch++
	if l.opts.Sync == SyncEachBatch ||
		(l.opts.Sync == SyncInterval && l.unsyncedBatch >= l.opts.SyncEvery) {
		return l.syncNow()
	}
	return nil
}

func (l *Log) syncNow() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.broken = err
		return err
	}
	d := uint64(time.Since(start).Nanoseconds())
	l.mSyncs.Add(1)
	l.mFsyncTotalNs.Add(d)
	for {
		cur := l.mFsyncMaxNs.Load()
		if d <= cur || l.mFsyncMaxNs.CompareAndSwap(cur, d) {
			break
		}
	}
	l.unsyncedBatch = 0
	l.genMu.Lock()
	n := int64(len(l.live))
	l.genMu.Unlock()
	l.mDurable.Store(n)
	return nil
}

// AppendLabels journals the label epoch ls as delta records against the
// last journaled epoch (a full Reset delta the first time). The records
// follow the commit marker of the last committed batch, and that position
// is the batch they reflect, so a recovered label set can never be newer
// than the recovered topology — the journal-before-publish contract's
// durable half. Returns the number of delta records written. It diffs
// every node; AppendLabelChanges is the same journal for a caller that
// knows which nodes changed. The log retains ls as its next baseline, so
// the caller must not modify it afterwards.
//
// Labels are a cache of computation: losing an unsynced label suffix only
// costs a localized heal on recovery, never correctness.
func (l *Log) AppendLabels(ls *LabelSet) (int, error) {
	if ls == nil {
		return 0, l.labelsWritable()
	}
	nodes := make([]int, ls.N())
	for i := range nodes {
		nodes[i] = i
	}
	return l.AppendLabelChanges(ls, nodes)
}

// AppendLabelChanges is AppendLabels for a label epoch whose values differ
// from the last journaled one at most at nodes — sorted, distinct and in
// [0, cur.N()). Only those nodes are read and compared, so the cost is
// O(len(nodes)) unless the epoch changes shape (node count, destination,
// backbone presence), which rewrites every node. An epoch in which no
// label moved writes one empty delta that advances the journaled batch, or
// nothing if that batch is already current. The records are the ones
// AppendLabels writes for the same epoch. Once they are written the log
// retains cur, not a copy, as the baseline of the next journal and the
// label section of the next snapshot: the caller must not modify cur
// afterwards.
func (l *Log) AppendLabelChanges(cur LabelReader, nodes []int) (int, error) {
	if err := l.labelsWritable(); err != nil {
		return 0, err
	}
	if err := l.baselineIntact(); err != nil {
		return 0, err
	}
	seq := l.seq.Load()
	deltas := diffLabels(l.labels, cur, nodes)
	if len(deltas) == 0 && l.labelSeq.Load() < seq {
		// No label moved since the journaled epoch, which reflects an
		// older batch: an empty route delta after this batch's commit
		// marker moves the recovered epoch up to it and changes no label.
		deltas = append(deltas, &LabelDelta{Kind: LabelRoute, N: uint32(cur.N()), Dest: int32(cur.Destination())})
	}
	if len(deltas) > 0 {
		buf := l.buf[:0]
		for _, d := range deltas {
			buf = appendFrame(buf, Record{Type: TLabelDelta, Label: d})
		}
		l.buf = buf[:0]
		if err := l.write(buf); err != nil {
			return 0, fmt.Errorf("wal: append labels at batch %d: %w", seq, err)
		}
		if err := l.maybeSync(); err != nil {
			return 0, fmt.Errorf("wal: fsync labels at batch %d: %w", seq, err)
		}
		l.mLabelRecs.Add(uint64(len(deltas)))
	}
	l.retainLabels(cur, seq)
	return len(deltas), nil
}

// labelsWritable reports why the log cannot journal labels, if it cannot.
func (l *Log) labelsWritable() error {
	if l.broken != nil {
		return ErrBroken
	}
	if l.fenced.Load() {
		return ErrFenced
	}
	return nil
}

// checkBaselines makes the log checksum each label epoch it retains and
// verify it before the epoch is read again, so a caller that modifies an
// epoch after handing it over fails loudly instead of corrupting the next
// delta or snapshot. It costs a full encode per journal; the package's
// tests turn it on.
var checkBaselines bool

// retainLabels makes ls, reflecting batch seq, the log's label baseline.
func (l *Log) retainLabels(ls LabelReader, seq uint64) {
	l.labels = ls
	l.labelSeq.Store(seq)
	if checkBaselines && ls != nil {
		l.labelsSum = crc32.Checksum(appendLabelSection(nil, ls, 0), castagnoli)
	}
}

// baselineIntact reports a retained label baseline that changed since it
// was retained; it checks only under checkBaselines.
func (l *Log) baselineIntact() error {
	if checkBaselines && l.labels != nil &&
		crc32.Checksum(appendLabelSection(nil, l.labels, 0), castagnoli) != l.labelsSum {
		return errors.New("wal: the journaled label epoch was modified after it was handed to the log")
	}
	return nil
}

// Labels returns the last journaled label epoch: the reader the caller
// last handed to AppendLabels or AppendLabelChanges, or the set recovery
// found, nil before either.
func (l *Log) Labels() LabelReader { return l.labels }

// Close fsyncs and closes the live log file. The store stays openable.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// applyRecord applies one mutation record to g under the graph's
// edge-acceptance rule, reporting whether it applied. The rule is
// deterministic, so log replay reconstructs the exact replica.
func applyRecord(g *graph.Graph, r Record) bool {
	if r.Type == TAddEdge {
		return g.TryAddEdge(int(r.U), int(r.V), r.Weight)
	}
	return g.RemoveEdge(int(r.U), int(r.V))
}

// compact rolls the current replica into a fresh generation and closes
// the previous generation's log.
func (l *Log) compact() error {
	old := l.f
	if err := l.newGeneration(); err != nil {
		return err
	}
	if old != nil {
		old.Close()
	}
	l.mCompactions.Add(1)
	return nil
}

// newGeneration installs the current replica as a fresh (snapshot, log
// header) generation and makes it the live one.
func (l *Log) newGeneration() error {
	if err := l.baselineIntact(); err != nil {
		return err
	}
	seq, cum := l.seq.Load(), l.cum.Load()
	sb := newSuper(seq, l.gen+1, l.fence)
	header := encodeLogHeader(sb.gen, seq, cum)
	f, err := installGeneration(l.fsys, l.dir, sb, EncodeSnapshotLabels(l.g, seq, cum, l.labels, l.labelSeq.Load()), header)
	if err != nil {
		return err
	}
	l.f = f
	l.genMu.Lock()
	l.snapName, l.logName = sb.snapName, sb.logName
	l.gen = sb.gen
	l.live = append(l.live[:0], header...)
	l.genMu.Unlock()
	l.mGen.Store(sb.gen)
	l.mDurable.Store(int64(len(header)))
	l.depth.Store(0)
	l.batchesInLog = 0
	l.unsyncedBatch = 0
	return nil
}

// newSuper names generation gen, whose snapshot reflects batch seq.
func newSuper(seq, gen, fence uint64) superblock {
	return superblock{
		snapSeq: seq, gen: gen, fence: fence,
		snapName: fmt.Sprintf("snap-%016d.snap", seq),
		logName:  fmt.Sprintf("wal-%016d.log", seq),
	}
}

// installGeneration is the store's one generation swap, shared by a Log
// (create, recovery, promotion, compaction) and a Mirror (resync and
// reopen). It writes snap and log under the names sb gives them, points the
// superblock at the pair, removes every other generation and interrupted
// temp file, and returns the log file open for appends. The order is the
// crash-safety argument: each file is durable (file fsync, then directory
// fsync) before anything references it, every file — the live log
// included — is replaced by renaming a temp file over it rather than
// truncated in place, and the superblock rename is the commit point. A crash
// at any step leaves either the old generation or the new one intact.
func installGeneration(fsys FS, dir string, sb superblock, snap, log []byte) (File, error) {
	if err := writeFileDurable(fsys, path.Join(dir, sb.snapName), snap); err != nil {
		return nil, err
	}
	f, err := createDurable(fsys, path.Join(dir, sb.logName), log)
	if err != nil {
		return nil, err
	}
	if err := writeFileDurable(fsys, path.Join(dir, superName), encodeSuper(sb)); err != nil {
		f.Close()
		return nil, err
	}
	if names, lerr := fsys.List(dir); lerr == nil {
		for _, name := range names {
			if name == superName || name == sb.snapName || name == sb.logName {
				continue
			}
			if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-") ||
				strings.HasSuffix(name, ".tmp") {
				_ = fsys.Remove(path.Join(dir, name))
			}
		}
		_ = fsys.SyncDir(dir)
	}
	return f, nil
}

// createDurable makes name hold exactly data, durably, and returns it open
// for appends: data goes to a temp file that is fsynced, renamed over name,
// and made durable in the namespace by a directory fsync.
func createDurable(fsys FS, name string, data []byte) (File, error) {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err == nil {
		err = fsys.SyncDir(path.Dir(name))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// writeFileDurable is createDurable for a file nothing appends to.
func writeFileDurable(fsys FS, name string, data []byte) error {
	f, err := createDurable(fsys, name, data)
	if err != nil {
		return err
	}
	return f.Close()
}

// ---- replication-facing accessors (safe from any goroutine) ----

// ReplState returns the live replication cursor: the current generation and
// its durable (fsynced) byte length, plus the last committed batch seq.
func (l *Log) ReplState() (gen uint64, durable int64, seq uint64) {
	return l.mGen.Load(), l.mDurable.Load(), l.seq.Load()
}

// SnapshotBytes returns a copy of the current generation's snapshot file
// along with the generation it anchors — the full-resync payload a freshly
// connected (or gen-lagged) replica mirrors before tailing LogChunk.
func (l *Log) SnapshotBytes() (gen uint64, data []byte, err error) {
	l.genMu.Lock()
	defer l.genMu.Unlock()
	data, err = l.fsys.ReadFile(path.Join(l.dir, l.snapName))
	return l.gen, data, err
}

// LogChunk copies up to max durable bytes of generation gen starting at
// byte offset off. It returns ErrGenGone when gen has been superseded
// (compaction or restart) — the replica must full-resync — and an empty
// slice when the replica is caught up to the durable frontier.
func (l *Log) LogChunk(gen uint64, off int64, max int) ([]byte, error) {
	l.genMu.Lock()
	defer l.genMu.Unlock()
	if gen != l.gen {
		return nil, ErrGenGone
	}
	durable := l.mDurable.Load()
	if off < 0 || off > int64(len(l.live)) {
		return nil, fmt.Errorf("wal: log chunk offset %d out of range [0,%d]", off, len(l.live))
	}
	if off >= durable {
		return nil, nil
	}
	end := off + int64(max)
	if end > durable {
		end = durable
	}
	return append([]byte(nil), l.live[off:end]...), nil
}
