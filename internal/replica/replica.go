package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"structura/internal/server"
	"structura/internal/wal"
)

// Options tunes a Replica. Zero values get serving defaults.
type Options struct {
	// WAL configures the mirror store (FS for tests, sync policy).
	WAL wal.Options
	// Dest and SkipCDS configure the server a promotion builds.
	Dest    int
	SkipCDS bool

	// DialTimeout bounds each connection attempt. Default 2s.
	DialTimeout time.Duration
	// IOTimeout bounds each network read/write; it must exceed the
	// primary's heartbeat interval. Default 5s.
	IOTimeout time.Duration
	// BackoffBase/BackoffMax shape the reconnect schedule: the delay
	// doubles from Base to Max with multiplicative jitter. Defaults
	// 50ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed uint64
}

func (o *Options) setDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 5 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ErrDeposed reports that the configured primary carries a lower fence than
// the replica's own store: it was deposed by an earlier failover, and
// following it would resurrect overwritten history. The replica keeps
// serving its mirrored state and stays promotable.
var ErrDeposed = errors.New("replica: configured primary is deposed (lower fence)")

// ErrPromoted reports an operation on a replica that has already been
// promoted to primary.
var ErrPromoted = errors.New("replica: already promoted")

// Replica follows a primary's replication stream: it mirrors the durable
// bytes into a crash-recoverable store directory, applies committed batches
// live to serve degraded stale-ok reads, and can be promoted into a full
// primary (wal.Promote bumps the fencing token) when the old one dies.
type Replica struct {
	dir  string
	addr string
	opts Options

	mu     sync.RWMutex // guards mirror and its applied view
	mirror *wal.Mirror

	primarySeq     atomic.Uint64
	primaryDurable atomic.Int64
	lastContactNs  atomic.Int64 // unix ns of the last primary message
	lastCommitNs   atomic.Int64 // unix ns of the last applied commit
	connected      atomic.Bool
	deposed        atomic.Bool
	promoted       atomic.Bool
	forceResync    atomic.Bool

	connects atomic.Uint64
	resyncs  atomic.Uint64
	chunksIn atomic.Uint64
	bytesIn  atomic.Uint64
	ackedOff atomic.Int64

	closed    atomic.Bool
	closeOnce sync.Once
	closeCh   chan struct{} // closed by Stop/Promote; interrupts backoff sleeps
	curConn   atomic.Pointer[net.Conn]
	runDone   chan struct{}
	runOnce   sync.Once

	promotedSrv atomic.Pointer[server.Server]
	promotedLog *wal.Log

	seed uint64

	// testHookMsg, when set, observes every incoming stream message before
	// it is processed; a non-nil return aborts the session — the crash
	// sweeps cut connections here.
	testHookMsg func(m msg) error
}

// New opens (or resumes) the mirror at dir and prepares to follow the
// primary at addr. A resumed mirror rebuilds its applied view from the
// mirrored snapshot and verified log prefix before any reconnect, so
// degraded reads are available immediately.
func New(dir, addr string, opts Options) (*Replica, error) {
	opts.setDefaults()
	m, err := wal.OpenMirror(dir, opts.WAL)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		dir: dir, addr: addr, opts: opts, mirror: m,
		closeCh: make(chan struct{}),
		runDone: make(chan struct{}), seed: opts.Seed,
	}
	if v := m.View(); v != nil && v.Batches > 0 {
		r.lastCommitNs.Store(time.Now().UnixNano())
	}
	return r, nil
}

// Run follows the primary until Stop or promotion: dial, handshake, stream,
// and on any failure reconnect under exponential backoff with jitter. It
// returns ErrDeposed when the primary's fence proves it was deposed, nil on
// Stop/promotion.
func (r *Replica) Run() error {
	defer r.runOnce.Do(func() { close(r.runDone) })
	backoff := r.opts.BackoffBase
	for !r.closed.Load() {
		err := r.session()
		r.connected.Store(false)
		if r.closed.Load() {
			return nil
		}
		if errors.Is(err, ErrDeposed) {
			r.deposed.Store(true)
			return err
		}
		// Interruptible backoff: a Stop or Promote must not wait out the
		// reconnect schedule — failover happens exactly when the primary is
		// unreachable and the loop is deep in backoff.
		select {
		case <-time.After(r.jitter(backoff)):
		case <-r.closeCh:
			return nil
		}
		backoff *= 2
		if backoff > r.opts.BackoffMax {
			backoff = r.opts.BackoffMax
		}
		if err == nil {
			backoff = r.opts.BackoffBase
		}
	}
	return nil
}

// jitter scales d by a deterministic factor in [0.5, 1.5).
func (r *Replica) jitter(d time.Duration) time.Duration {
	r.seed += 0x9e3779b97f4a7c15
	z := r.seed
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>40) / float64(1<<24) // [0,1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// session runs one connection to completion: dial, hello, stream.
func (r *Replica) session() error {
	conn, err := net.DialTimeout("tcp", r.addr, r.opts.DialTimeout)
	if err != nil {
		return err
	}
	r.curConn.Store(&conn)
	defer func() {
		r.curConn.Store(nil)
		conn.Close()
	}()
	r.connects.Add(1)

	gen, fence, off := r.mirror.State()
	if r.forceResync.Swap(false) {
		gen, off = 0, 0 // corrupt stream detected: demand a snapshot
	}
	_ = conn.SetWriteDeadline(time.Now().Add(r.opts.IOTimeout))
	if err := writeMsg(conn, msg{Kind: mHello, Gen: gen, Off: off, Fence: fence}); err != nil {
		return err
	}

	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.opts.IOTimeout))
		m, err := readMsg(conn)
		if err != nil {
			return err
		}
		if r.testHookMsg != nil {
			if herr := r.testHookMsg(m); herr != nil {
				return herr
			}
		}
		r.lastContactNs.Store(time.Now().UnixNano())
		switch m.Kind {
		case mReject:
			// Our fence is higher: the node we dialed is the deposed one.
			return ErrDeposed
		case mState, mHeartbeat:
			if m.Fence < fence {
				return ErrDeposed
			}
			r.connected.Store(true)
			r.primarySeq.Store(m.Seq)
			r.primaryDurable.Store(m.Off)
		case mSnapshot:
			if err := r.installSnapshot(m); err != nil {
				return err
			}
			if err := r.sendAck(conn, m.Gen, 0); err != nil {
				return err
			}
		case mChunk:
			if err := r.applyChunk(conn, m); err != nil {
				return err
			}
		}
	}
}

func (r *Replica) installSnapshot(m msg) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.mirror.InstallSnapshot(m.Gen, m.Fence, m.Data); err != nil {
		return err
	}
	r.resyncs.Add(1)
	return nil
}

// applyChunk mirrors one chunk durably — the mirror feeds it to the applied
// view — and acks the new verified offset.
func (r *Replica) applyChunk(conn net.Conn, m msg) error {
	r.mu.Lock()
	gen, _, _ := r.mirror.State()
	if m.Gen != gen {
		r.mu.Unlock()
		return nil // chunk from a superseded generation: drop
	}
	before, seq := r.mirror.Durable(), r.mirror.View().Seq
	if err := r.mirror.Append(m.Off, m.Data); err != nil {
		r.mu.Unlock()
		if errors.Is(err, wal.ErrStaleChunk) {
			// The stream skipped ahead (e.g. acks raced a reconnect):
			// re-anchor by re-sending our true position.
			_ = conn.SetWriteDeadline(time.Now().Add(r.opts.IOTimeout))
			g2, f2, o2 := r.mirror.State()
			return writeMsg(conn, msg{Kind: mHello, Gen: g2, Off: o2, Fence: f2})
		}
		// The mirrored bytes are unusable (a failed write, a foreign
		// header, frames that do not apply): drop the stream and demand a
		// snapshot on reconnect.
		r.forceResync.Store(true)
		return err
	}
	if grew := r.mirror.Durable() - before; grew > 0 {
		r.chunksIn.Add(1)
		r.bytesIn.Add(uint64(grew))
	}
	if r.mirror.View().Seq != seq {
		r.lastCommitNs.Store(time.Now().UnixNano())
	}
	// Ack the verified prefix, not the raw mirrored length: a reopened
	// mirror keeps whole checksummed frames only, so a trailing partial
	// frame — synced or not — must never be claimed. This keeps the sweep
	// invariant acked ≤ recovered exact even for a crash mid-frame.
	acked := r.mirror.Acked()
	r.mu.Unlock()
	return r.sendAck(conn, m.Gen, acked)
}

func (r *Replica) sendAck(conn net.Conn, gen uint64, off int64) error {
	_ = conn.SetWriteDeadline(time.Now().Add(r.opts.IOTimeout))
	if err := writeMsg(conn, msg{Kind: mAck, Gen: gen, Off: off}); err != nil {
		return err
	}
	r.ackedOff.Store(off)
	return nil
}

// Stop ends the follow loop and closes the mirror. The store directory
// remains recoverable.
func (r *Replica) Stop() {
	if r.closed.Swap(true) {
		return
	}
	r.closeOnce.Do(func() { close(r.closeCh) })
	if cp := r.curConn.Load(); cp != nil {
		(*cp).Close()
	}
	r.runOnce.Do(func() { close(r.runDone) }) // Run may never have started
	r.mu.Lock()
	r.mirror.Close()
	r.mu.Unlock()
}

// Promote turns the replica into a primary: the follow loop stops, the
// mirrored store is recovered under a bumped fencing token (wal.Promote),
// and a full serving layer is warm-started from the recovered label epoch.
// After Promote the replica's HTTP handler transparently serves the
// promoted server's endpoints; the returned Log is owned by the caller
// (close it after the server shuts down). The old primary, if it ever
// returns, is fenced on its first contact with any replica following the
// new one.
func (r *Replica) Promote() (*server.Server, *wal.Log, *wal.Recovery, error) {
	if r.promoted.Swap(true) {
		return nil, nil, nil, ErrPromoted
	}
	r.closed.Store(true)
	r.closeOnce.Do(func() { close(r.closeCh) })
	if cp := r.curConn.Load(); cp != nil {
		(*cp).Close()
	}
	select {
	case <-r.runDone:
	case <-time.After(r.opts.IOTimeout + time.Second):
		return nil, nil, nil, errors.New("replica: follow loop did not stop")
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.mirror.Close()

	l, rec, err := wal.Promote(r.dir, r.opts.WAL)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("replica: promote store: %w", err)
	}
	srv, err := server.New(l.Graph(), server.Config{
		Dest:    r.opts.Dest,
		SkipCDS: r.opts.SkipCDS,
		WAL:     l,
		// Recovered carries the label epoch and dirty set: the promoted
		// server warm-starts and heals only what the epoch missed.
		Recovered: &rec,
	})
	if err != nil {
		l.Close()
		return nil, nil, nil, fmt.Errorf("replica: promoted server: %w", err)
	}
	r.promotedSrv.Store(srv)
	r.promotedLog = l
	return srv, l, &rec, nil
}

// PromotedLog returns the log a Promote produced (nil before promotion).
func (r *Replica) PromotedLog() *wal.Log { return r.promotedLog }

// PromotedServer returns the server a Promote installed (nil before
// promotion) — the handle a host process needs to shut the promoted
// primary down cleanly.
func (r *Replica) PromotedServer() *server.Server { return r.promotedSrv.Load() }

// Applied returns the replica's applied view cursor: last committed batch
// seq applied to the in-memory graph, and the mirrored durable byte offset.
func (r *Replica) Applied() (seq uint64, durable int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v := r.mirror.View(); v != nil {
		seq = v.Seq
	}
	return seq, r.mirror.Durable()
}
