package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path"
)

// Mirror is a replica's copy of a primary's store: a byte-accurate copy of
// its directory, fed from the replication stream, and the applied view of
// that stream. The primary ships its snapshot on connect (or whenever
// generations diverge) and then raw durable log bytes by offset; the Mirror
// writes them down through the store's own generation install, so at every
// instant the directory is a store wal.Open — or wal.Promote, at failover —
// can recover. As bytes become durable the Mirror checks them against the
// generation's header and feeds their frames to its Applier, the view a
// replica serves reads from.
type Mirror struct {
	fsys FS
	dir  string

	sb     superblock // the installed generation; zero before the first
	header []byte     // the header the installed generation's log opens with
	view   *Applier   // snapshot plus applied frames; nil before the first generation
	f      File
	off    int64 // durable mirrored byte length of the live log generation
}

// ErrStaleChunk reports an Append at an offset the mirror has not reached:
// the stream skipped bytes, so the replica must re-request from Durable().
var ErrStaleChunk = errors.New("wal: chunk offset beyond mirrored prefix")

// OpenMirror opens (or initializes) a mirror directory. An existing mirror
// resumes at its verified prefix: the longest run of whole, checksummed
// frames behind the generation's header. That prefix is replayed into the
// view and installed as the live log, so a torn tail from a mid-write crash
// is discarded and the offset reported to the primary never claims bytes
// that did not survive. A directory with no readable superblock starts
// empty at generation 0 — the first InstallSnapshot seeds it.
func OpenMirror(dir string, opts Options) (*Mirror, error) {
	opts.setDefaults()
	m := &Mirror{fsys: opts.FS, dir: dir}
	if err := m.fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mirror dir: %w", err)
	}
	raw, err := m.fsys.ReadFile(path.Join(dir, superName))
	if err != nil {
		return m, nil // fresh mirror: nothing to resume
	}
	sb, err := decodeSuper(raw)
	if err != nil {
		return m, nil // unreadable superblock: treat as fresh, resync seeds it
	}
	snap, err := m.fsys.ReadFile(path.Join(dir, sb.snapName))
	if err != nil {
		return nil, fmt.Errorf("wal: mirrored snapshot: %w", err)
	}
	data, err := m.fsys.ReadFile(path.Join(dir, sb.logName)) // a missing log resumes empty
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: mirrored log: %w", err)
	}
	if err := m.install(sb.gen, sb.fence, snap, data); err != nil {
		return nil, err
	}
	return m, nil
}

// InstallSnapshot replaces the mirror's contents with a full-resync
// payload: the primary's snapshot file for generation gen under fencing
// token fence. A corrupt payload is rejected before anything touches disk.
// The view restarts from the snapshot and log bytes restart at offset 0;
// the generation's header arrives as the first streamed bytes.
func (m *Mirror) InstallSnapshot(gen, fence uint64, snap []byte) error {
	return m.install(gen, fence, snap, nil)
}

// install decodes snap — once — into a fresh view, replays the verified
// prefix of log into it, and installs the pair as the live generation.
func (m *Mirror) install(gen, fence uint64, snap, log []byte) error {
	g, seq, cum, ls, err := DecodeSnapshotLabels(snap)
	if err != nil {
		return fmt.Errorf("wal: mirror snapshot: %w", err)
	}
	view := NewApplier(g, ls, seq)
	header := encodeLogHeader(gen, seq, cum)
	keep := streamPrefix(log, header)
	if keep > logHeaderLen {
		if err := view.Feed(log[logHeaderLen:keep]); err != nil {
			return fmt.Errorf("wal: mirrored log replay: %w", err)
		}
	}
	sb := newSuper(seq, gen, fence)
	f, err := installGeneration(m.fsys, m.dir, sb, snap, log[:keep])
	if err != nil {
		// The directory may already name part of the new generation: stop
		// appending to the old one until a resync installs a whole one.
		m.Close()
		return err
	}
	if m.f != nil {
		m.f.Close()
	}
	m.sb, m.header, m.view, m.f, m.off = sb, header, view, f, int64(keep)
	return nil
}

// streamPrefix returns the length of the longest valid prefix of a log
// generation's byte stream: header, then whole frames that pass their
// checksum and decode. A torn or corrupt tail is excluded; a stream that
// does not open with header yields 0.
func streamPrefix(data, header []byte) int {
	if !bytes.HasPrefix(data, header) {
		return 0
	}
	off := len(header)
	for off < len(data) {
		_, n, err := readFrame(data[off:])
		if err != nil {
			break
		}
		off += n
	}
	return off
}

// State returns the mirror's replication cursor: the generation it holds,
// the fence it recorded, and the durable byte offset it can resume from.
func (m *Mirror) State() (gen, fence uint64, off int64) { return m.sb.gen, m.sb.fence, m.off }

// Durable returns the fsynced byte length of the mirrored live generation.
func (m *Mirror) Durable() int64 { return m.off }

// Acked returns the offset a replica may acknowledge: the durable prefix
// through the last whole frame, which is exactly what a reopen keeps.
func (m *Mirror) Acked() int64 {
	if m.off < logHeaderLen {
		return 0
	}
	return m.off - int64(m.view.Buffered())
}

// View returns the applied view: the installed snapshot plus every
// committed batch and label delta of the durable stream (nil before the
// first generation). It changes under Append and InstallSnapshot; callers
// serialize access with them.
func (m *Mirror) View() *Applier { return m.view }

// Append mirrors durable log bytes at offset off and fsyncs them before
// returning, so an ack sent after Append can never claim bytes a crash
// would lose. Chunks the mirror already holds are ignored (the stream may
// resend across a reconnect); a chunk beyond the mirrored prefix is
// ErrStaleChunk and the replica must re-request from Durable(). The new
// bytes are then checked against the generation's header and fed to the
// view; an error there means the stream is unusable and needs a resync.
func (m *Mirror) Append(off int64, data []byte) error {
	if m.f == nil {
		return errors.New("wal: mirror has no generation installed")
	}
	if off+int64(len(data)) <= m.off {
		return nil // duplicate resend
	}
	if off > m.off {
		return fmt.Errorf("%w: chunk at %d, mirrored through %d", ErrStaleChunk, off, m.off)
	}
	data = data[m.off-off:] // overlap: keep only the new suffix
	if _, err := m.f.Write(data); err != nil {
		return fmt.Errorf("wal: mirror append: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("wal: mirror sync: %w", err)
	}
	at := m.off
	m.off += int64(len(data))
	if at < logHeaderLen {
		n := min(int64(len(data)), logHeaderLen-at)
		if !bytes.Equal(data[:n], m.header[at:at+n]) {
			return fmt.Errorf("%w: mirrored log header does not open generation %d", ErrCorrupt, m.sb.gen)
		}
		data = data[n:]
	}
	return m.view.Feed(data)
}

// Close releases the mirror's file handle. The directory remains a
// recoverable store; reopen with OpenMirror to resume, or hand it to
// wal.Promote to take over as primary.
func (m *Mirror) Close() error {
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	return err
}
