package async

import (
	"math"
	"math/rand/v2"
	"sort"

	"structura/internal/graph"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// Hash salts separating the executor's independent pure-hash decision
// streams (message loss for data vs acks). The PCG salt seeds the fault
// draws, mirroring the discipline of sim.Perturber / sim.FaultStream but on
// an independent stream.
const (
	saltData = 0x51A3B2C4D5E6F701
	saltAck  = 0xAC1D2E3F40516273
	saltPCG  = 0xA24BAED4963EE407
)

// evKind discriminates scheduler events. Within one tick, events execute in
// push order — a total order fixed by the single event loop, which is what
// makes runs bit-identical regardless of GOMAXPROCS.
type evKind uint8

const (
	evRound   evKind = iota // fault-window boundary: apply the round's faults
	evRestart               // crashed node comes back up
	evResume                // paused node runs its deferred step
	evMsg                   // data message arrives at the receiver's link layer
	evAck                   // ack arrives back at the sender
	evRetry                 // retransmission timer fires
	evProc                  // receiver processes its mailbox head
	evProbe                 // termination-detector probe
)

// event is one scheduled occurrence. Field use varies by kind: from/to are
// (sender, receiver) for transport events, `to` is the node for
// evRestart/evResume/evProc, and `from` is the round for evRound.
type event[S any] struct {
	at      Ticks
	order   uint64 // push sequence: total tiebreak within a tick
	kind    evKind
	from    int
	to      int
	mseq    uint64
	attempt int
	payload S
}

// msgItem is a data message queued in a mailbox.
type msgItem[S any] struct {
	from    int
	mseq    uint64
	attempt int
	payload S
}

// outbox tracks the newest message on one directed link. The protocol is
// newest-wins: a fresh state supersedes the unacked previous one (receivers
// only ever need the latest full state), so each link carries at most one
// outstanding message — the per-link deficit the termination detector sums.
type outbox[S any] struct {
	seq      uint64 // last assigned sequence number (0 = never sent)
	acked    bool   // the seq message has been acked (or nothing outstanding)
	attempts int
	rto      Ticks
	deadline Ticks // when the current seq becomes eligible for retransmission
	timer    bool  // an evRetry for this link is queued (at most one at a time)
	payload  S
}

// dropKey addresses one scripted message-drop window: every transmission
// from U to V during round R is destroyed.
type dropKey struct {
	u, v, r int
}

// Executor runs one step function under partial synchrony. Build with
// NewExecutor, drive with Run (one-shot to quiescence). An Executor is
// single-run and not safe for concurrent use: determinism comes
// from the one event loop.
type Executor[S any] struct {
	cfg  Config
	seed uint64
	sch  sim.Schedule
	n    int

	init func(int) S
	step func(v int, self S, nbrs []S) (S, bool)

	live *graph.Graph
	csr  *graph.CSR

	// Per-node, CSR-row-aligned link state. sortedNbr/sortedIdx give
	// O(log deg) sender→row lookup without per-message map traffic.
	views     [][]S
	inSeq     [][]uint64
	out       [][]outbox[S]
	sortedNbr [][]int32
	sortedIdx [][]int32
	seqMem    map[uint64]uint64 // linkKey → last seq of a removed link

	// Mailbox and blocked queues drain by head index (reset when empty)
	// instead of shifting, so a long blocked backlog admits in O(1).
	mbox        [][]msgItem[S]
	mboxHead    []int
	blocked     [][]msgItem[S]
	blockedHead []int
	procPending []bool
	downTicks   []Ticks // node is down while now < downTicks[v]
	pauseTicks  []Ticks // node defers its step while now < pauseTicks[v]
	downR       []int   // round-granular crash bookkeeping (draw guards)
	skipR       []int

	state []S

	// Calendar event queue: a ring of per-tick FIFO buckets for the near
	// window plus an overflow min-heap for the rare event scheduled further
	// than bktSpan ticks out. Pop order is (tick, push order) — identical to
	// a (at, order) min-heap — at O(1) per operation instead of O(log q)
	// sifts over a multi-million-event heap.
	now     Ticks
	bkt     [][]event[S]
	bktHead []int
	cursor  Ticks // all ticks < cursor have empty buckets
	// bktFree recycles drained slot arrays: pop parks each emptied slot's
	// array here and push hands the most recently parked one to the next
	// slot that needs storage. Virtual time is monotone, so a run shorter
	// than bktSpan ticks never revisits a slot — without recycling, every
	// tick of a burst would grow a fresh array and total allocation would
	// track cumulative event volume instead of peak queue depth.
	bktFree [][]event[S]
	ovf     []event[S]
	qLen    int
	pushSeq uint64

	// Detector inputs: pendingWork counts scheduled non-probe events (all
	// potential activity), outstandingLinks is the summed ack deficit, and
	// queued counts mailbox + blocked messages.
	pendingWork      int
	outstandingLinks int
	queued           int
	prevPassive      bool
	prevFP           [4]int
	declared         bool

	rng           *rand.Rand
	byRound       map[int][]sim.Event
	dropWin       map[dropKey]bool
	maxFaultRound int
	horizonTicks  Ticks
	budgetTicks   Ticks
	skipAdds      bool // reversal: record add-edge events but do not apply them

	stats     Stats
	hist      []runtime.RoundStats
	trace     []sim.Event
	lastFault int

	budgetExceeded bool
	eventsSinceCtx int
}

// NewExecutor builds an executor for one run of `step` over g, with node v
// initialized to init(v) and every view initialized to the neighbor's init
// state (the same initial-knowledge convention as the synchronous kernel's
// perturbed path). The schedule's faults are mapped onto virtual time: round
// r spans ticks [(r-1)·RoundTicks, r·RoundTicks).
func NewExecutor[S any](g *graph.Graph, init func(int) S, step func(int, S, []S) (S, bool), sch sim.Schedule, cfg Config) (*Executor[S], error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := g.N()
	x := &Executor[S]{
		cfg:     cfg,
		seed:    cfg.Seed,
		sch:     sch,
		n:       n,
		init:    init,
		step:    step,
		live:    g.Clone(),
		seqMem:  map[uint64]uint64{},
		byRound: map[int][]sim.Event{},
		dropWin: map[dropKey]bool{},
		rng:     rand.New(rand.NewPCG(cfg.Seed, saltPCG)),
	}
	x.state = make([]S, n)
	for v := 0; v < n; v++ {
		x.state[v] = init(v)
	}
	x.mbox = make([][]msgItem[S], n)
	x.mboxHead = make([]int, n)
	x.blocked = make([][]msgItem[S], n)
	x.blockedHead = make([]int, n)
	// Arena-allocate the queue rows: two slabs instead of one growth chain
	// per node. Row capacities cover the steady-state bound (qpop keeps a
	// row's length within 2x its live content, and in-queue coalescing
	// bounds live content by MailboxCap resp. in-degree); a row that still
	// overflows reallocates alone, capped so it cannot bleed into its
	// neighbors' storage.
	mcap := cfg.MailboxCap
	if mcap > 8 {
		mcap = 8
	}
	mcap *= 2
	mboxBuf := make([]msgItem[S], n*mcap)
	qcap := make([]int, n)
	total := 0
	for v := 0; v < n; v++ {
		x.mbox[v] = mboxBuf[v*mcap : v*mcap : (v+1)*mcap]
		c := 2 * g.Degree(v)
		if c > 16 {
			c = 16
		}
		qcap[v] = c
		total += c
	}
	blockedBuf := make([]msgItem[S], total)
	off := 0
	for v := 0; v < n; v++ {
		x.blocked[v] = blockedBuf[off : off : off+qcap[v]]
		off += qcap[v]
	}
	x.procPending = make([]bool, n)
	x.downTicks = make([]Ticks, n)
	x.pauseTicks = make([]Ticks, n)
	x.downR = make([]int, n)
	x.skipR = make([]int, n)
	x.bkt = make([][]event[S], bktSpan)
	x.bktHead = make([]int, bktSpan)
	for v := 0; v < n; v++ {
		x.downR[v], x.skipR[v] = -1, -1
	}
	for _, e := range sch.Events {
		x.byRound[e.Round] = append(x.byRound[e.Round], e)
	}
	x.maxFaultRound = sch.Horizon
	for _, e := range sch.Events {
		if e.Round > x.maxFaultRound {
			x.maxFaultRound = e.Round
		}
		if e.Op == sim.OpCrash || e.Op == sim.OpSkip {
			if end := e.Round + e.For; end > x.maxFaultRound {
				x.maxFaultRound = end
			}
		}
	}
	x.horizonTicks = Ticks(sch.Horizon) * cfg.RoundTicks
	budgetRounds := cfg.MaxRounds
	if budgetRounds <= 0 {
		budgetRounds = sch.Budget
		if budgetRounds <= 0 {
			budgetRounds = sch.Horizon + 4*n + 8
		}
	}
	if budgetRounds < x.maxFaultRound+8 {
		budgetRounds = x.maxFaultRound + 8
	}
	x.budgetTicks = Ticks(budgetRounds) * cfg.RoundTicks
	x.stats.DetectedAt = -1
	x.refreeze()
	return x, nil
}

// Live returns the current (churned) support topology. Read-only to
// callers; all mutation goes through fault events.
func (x *Executor[S]) Live() *graph.Graph { return x.live }

// States returns a copy of the current node states.
func (x *Executor[S]) States() []S { return append([]S(nil), x.state...) }

// Now returns the current virtual time.
func (x *Executor[S]) Now() Ticks { return x.now }

// Trace returns the concrete fault events applied so far, like
// sim.Perturber.Trace.
func (x *Executor[S]) Trace() []sim.Event { return append([]sim.Event(nil), x.trace...) }

// LastFaultRound returns the last round window in which a fault applied.
func (x *Executor[S]) LastFaultRound() int { return x.lastFault }

// Run drives the executor to detector-declared quiescence, budget
// exhaustion, or context cancellation, and returns the final states with
// the run's statistics. Cancellation is clean: the loop stops between
// events, so states and statistics are consistent as of the last event.
func (x *Executor[S]) Run() ([]S, Stats, error) {
	t0 := timeNow()
	x.start()
	err := x.loop()
	x.finalize()
	x.stats.Wall = timeSince(t0)
	return x.States(), x.stats, err
}

// window maps a tick to its 1-based round window.
func (x *Executor[S]) window(t Ticks) int { return int(t/x.cfg.RoundTicks) + 1 }

func (x *Executor[S]) isDown(v int) bool   { return x.now < x.downTicks[v] }
func (x *Executor[S]) isPaused(v int) bool { return x.now < x.pauseTicks[v] }

// passive reports implementation-level quiescence: nothing scheduled,
// nothing queued, zero ack deficit. Equivalent to (and cheaper than) the
// distributed deficit sum — see quiesce.go for the detector protocol that
// confirms it.
func (x *Executor[S]) passive() bool {
	return x.pendingWork == 0 && x.outstandingLinks == 0 && x.queued == 0
}

// ---- event queue -------------------------------------------------------

// bktSpan is the calendar ring width in ticks. Everything the protocol
// schedules is much nearer than this (delays are a few ticks, MaxRTO
// defaults to 64 round windows = 1024 ticks); a pathological schedule — a
// crash with a multi-hundred-window downtime — lands in the overflow heap
// and is admitted to the ring as the cursor approaches.
const (
	bktSpan = 1 << 12
	bktMask = bktSpan - 1
)

func evLess[S any](a, b event[S]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.order < b.order
}

func (x *Executor[S]) push(e event[S]) {
	e.order = x.pushSeq
	x.pushSeq++
	if e.kind != evProbe {
		x.pendingWork++
	}
	x.qLen++
	if e.at < x.cursor {
		e.at = x.cursor // defensive: the protocol never schedules into the past
	}
	if e.at-x.cursor < bktSpan {
		x.slotAppend(int(e.at&bktMask), e)
		return
	}
	x.ovfPush(e)
}

// slotAppend adds e to ring slot i, seeding an empty slot with the largest
// recycled array first. The free list is capacity-sorted and acquisition
// takes from the top, so a hot tick — the initial activation wave, a
// synchronized retry deadline — inherits the biggest drained array instead
// of regrowing a quiet tick's two-element one; a quiet tick that borrows a
// big array merely returns it untouched one tick later. Growth therefore
// happens only while peak demand is still being discovered, and total
// allocation tracks peak queue depth rather than cumulative event volume.
func (x *Executor[S]) slotAppend(i int, e event[S]) {
	if cap(x.bkt[i]) == 0 {
		if n := len(x.bktFree); n > 0 {
			x.bkt[i] = x.bktFree[n-1]
			x.bktFree[n-1] = nil
			x.bktFree = x.bktFree[:n-1]
		}
	}
	if len(x.bkt[i]) == cap(x.bkt[i]) {
		// Grow by doubling rather than append's ~1.25x large-slice factor:
		// a slot ramping to H costs 2H across its growth chain instead of
		// 5H, and hot slots are the repo's biggest single allocation site.
		newCap := 2 * cap(x.bkt[i])
		if newCap < 64 {
			newCap = 64
		}
		nb := make([]event[S], len(x.bkt[i]), newCap)
		copy(nb, x.bkt[i])
		x.bkt[i] = nb
	}
	x.bkt[i] = append(x.bkt[i], e)
}

// parkSlot returns a drained slot array to the capacity-sorted free list.
func (x *Executor[S]) parkSlot(arr []event[S]) {
	c := cap(arr)
	k := sort.Search(len(x.bktFree), func(j int) bool { return cap(x.bktFree[j]) > c })
	x.bktFree = append(x.bktFree, nil)
	copy(x.bktFree[k+1:], x.bktFree[k:])
	x.bktFree[k] = arr[:0]
}

// peekAt returns the virtual time of the next queued event without
// consuming it, or math.MaxInt64 when the queue is empty.
func (x *Executor[S]) peekAt() Ticks {
	if x.qLen == 0 {
		return math.MaxInt64
	}
	best := Ticks(math.MaxInt64)
	if len(x.ovf) > 0 {
		best = x.ovf[0].at
	}
	end := x.cursor + bktSpan
	if best < end {
		end = best
	}
	for t := x.cursor; t < end; t++ {
		if i := int(t & bktMask); x.bktHead[i] < len(x.bkt[i]) {
			return t
		}
	}
	return best
}

func (x *Executor[S]) pop() event[S] {
	at := x.peekAt()
	// Advance the cursor, parking each emptied bucket's array on the free
	// stack so a later tick reuses its capacity.
	steps := at - x.cursor
	if steps > bktSpan {
		steps = bktSpan
	}
	for s := Ticks(0); s < steps; s++ {
		i := int((x.cursor + s) & bktMask)
		if cap(x.bkt[i]) > 0 {
			x.parkSlot(x.bkt[i])
			x.bkt[i] = nil
		}
		x.bktHead[i] = 0
	}
	x.cursor = at
	// Admit overflow events that now fall inside the ring window, in
	// (time, order) sequence.
	for len(x.ovf) > 0 && x.ovf[0].at-x.cursor < bktSpan {
		o := x.ovfPop()
		x.slotAppend(int(o.at&bktMask), o)
	}
	i := int(at & bktMask)
	e := x.bkt[i][x.bktHead[i]]
	x.bktHead[i]++
	x.qLen--
	if e.kind != evProbe {
		x.pendingWork--
	}
	return e
}

func (x *Executor[S]) ovfPush(e event[S]) {
	x.ovf = append(x.ovf, e)
	i := len(x.ovf) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(x.ovf[i], x.ovf[p]) {
			break
		}
		x.ovf[i], x.ovf[p] = x.ovf[p], x.ovf[i]
		i = p
	}
}

func (x *Executor[S]) ovfPop() event[S] {
	top := x.ovf[0]
	last := len(x.ovf) - 1
	x.ovf[0] = x.ovf[last]
	x.ovf = x.ovf[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && evLess(x.ovf[l], x.ovf[min]) {
			min = l
		}
		if r < last && evLess(x.ovf[r], x.ovf[min]) {
			min = r
		}
		if min == i {
			break
		}
		x.ovf[i], x.ovf[min] = x.ovf[min], x.ovf[i]
		i = min
	}
	return top
}

// ---- topology ----------------------------------------------------------

// rowIndex finds the CSR row position of neighbor w within v's row via
// binary search over the sorted shadow arrays.
func (x *Executor[S]) rowIndex(v, w int) (int, bool) {
	nbrs := x.sortedNbr[v]
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < int32(w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo] == int32(w) {
		return int(x.sortedIdx[v][lo]), true
	}
	return 0, false
}

// refreeze rebuilds the CSR snapshot and every row-aligned array after a
// topology change, carrying link state over surviving links. New links get
// the handshake convention of the round kernel's perturbed path (runtime's
// remap): the view initializes to the neighbor's current state. Sequence
// counters of removed links persist in seqMem so a re-added link resumes
// its numbering — and a re-added link's inSeq starts at the peer's outbox
// counter, which makes any still in-flight pre-removal message a stale
// duplicate instead of a view regression.
func (x *Executor[S]) refreeze() {
	oldCSR := x.csr
	oldViews, oldIn, oldOut := x.views, x.inSeq, x.out
	oldSortedNbr, oldSortedIdx := x.sortedNbr, x.sortedIdx
	oldRow := func(v, w int) (int, bool) {
		nbrs := oldSortedNbr[v]
		i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(w) })
		if i < len(nbrs) && nbrs[i] == int32(w) {
			return int(oldSortedIdx[v][i]), true
		}
		return 0, false
	}

	x.csr = x.live.Freeze()
	n := x.n
	total := 0
	for v := 0; v < n; v++ {
		total += x.csr.Degree(v)
	}
	viewsBuf := make([]S, total)
	inBuf := make([]uint64, total)
	outBuf := make([]outbox[S], total)
	nbrBuf := make([]int32, total)
	idxBuf := make([]int32, total)
	x.views = make([][]S, n)
	x.inSeq = make([][]uint64, n)
	x.out = make([][]outbox[S], n)
	x.sortedNbr = make([][]int32, n)
	x.sortedIdx = make([][]int32, n)

	// Release the counters of links that disappeared before rebuilding, so
	// the ack deficit stays exact.
	if oldCSR != nil {
		for v := 0; v < n; v++ {
			for j, w32 := range oldCSR.Neighbors(v) {
				w := int(w32)
				if x.live.HasEdge(v, w) {
					continue
				}
				x.seqMem[linkKey(v, w)] = oldOut[v][j].seq
				if !oldOut[v][j].acked {
					x.outstandingLinks--
				}
			}
		}
	}

	off := 0
	for v := 0; v < n; v++ {
		row := x.csr.Neighbors(v)
		deg := len(row)
		x.views[v] = viewsBuf[off : off+deg : off+deg]
		x.inSeq[v] = inBuf[off : off+deg : off+deg]
		x.out[v] = outBuf[off : off+deg : off+deg]
		x.sortedNbr[v] = nbrBuf[off : off+deg : off+deg]
		x.sortedIdx[v] = idxBuf[off : off+deg : off+deg]
		off += deg
		for i, w32 := range row {
			w := int(w32)
			x.sortedNbr[v][i] = w32
			x.sortedIdx[v][i] = int32(i)
			if oldCSR != nil {
				if j, ok := oldRow(v, w); ok {
					x.views[v][i] = oldViews[v][j]
					x.inSeq[v][i] = oldIn[v][j]
					x.out[v][i] = oldOut[v][j]
					continue
				}
			}
			// New (or initial) link: handshake view, restored counters.
			x.views[v][i] = x.state[w]
			x.out[v][i] = outbox[S]{seq: x.seqMem[linkKey(v, w)], acked: true}
			x.inSeq[v][i] = x.seqMem[linkKey(w, v)]
		}
		// Sort the shadow row by neighbor id for rowIndex lookups. An
		// allocation-free insertion co-sort: rows are short (node degree)
		// and usually nearly sorted already, and sort.Sort's interface
		// indirection would cost one heap allocation per node per
		// refreeze.
		sn, si := x.sortedNbr[v], x.sortedIdx[v]
		for i := 1; i < len(sn); i++ {
			nb, ix := sn[i], si[i]
			j := i - 1
			for ; j >= 0 && sn[j] > nb; j-- {
				sn[j+1], si[j+1] = sn[j], si[j]
			}
			sn[j+1], si[j+1] = nb, ix
		}
	}
}

// ---- accounting --------------------------------------------------------

// histAt returns the History bucket for the window containing t, creating
// it on demand (windows with no activity leave no bucket, matching the
// sparse read sim.RecoveryRounds performs).
func (x *Executor[S]) histAt(t Ticks) *runtime.RoundStats {
	r := x.window(t)
	if ln := len(x.hist); ln > 0 && x.hist[ln-1].Round == r {
		return &x.hist[ln-1]
	}
	x.hist = append(x.hist, runtime.RoundStats{Round: r})
	return &x.hist[len(x.hist)-1]
}

func (x *Executor[S]) noteFault(round int) {
	if round > x.lastFault {
		x.lastFault = round
	}
}

// ---- protocol ----------------------------------------------------------

// lost decides whether a transmission starting at sendAt is destroyed in
// flight: scripted drop windows destroy data messages outright, and within
// the adversary horizon every transmission (data and ack) faces the
// schedule's MsgLoss probability via a pure hash — varying per attempt, so
// retransmissions eventually get through.
func (x *Executor[S]) lost(sendAt Ticks, from, to int, seq uint64, attempt int, salt uint64) bool {
	r := x.window(sendAt)
	if salt == saltData && x.dropWin[dropKey{from, to, r}] {
		return true
	}
	if sendAt >= x.horizonTicks || x.sch.MsgLoss <= 0 {
		return false
	}
	h := splitmix64(x.seed ^ salt ^ linkKey(from, to) ^
		seq*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xD1B54A32D192ED03 ^ uint64(r)*0x94D049BB133111EB)
	return chance(h) < x.sch.MsgLoss
}

// transmit puts one copy of message (v→w, seq) on the wire.
func (x *Executor[S]) transmit(v, w int, payload S, seq uint64, attempt int) {
	if attempt == 0 {
		x.stats.Sent++
	} else {
		x.stats.Retries++
	}
	if x.lost(x.now, v, w, seq, attempt, saltData) {
		x.stats.Lost++
		x.noteFault(x.window(x.now))
		return
	}
	d := x.cfg.Delay.draw(x.seed, v, w, seq, attempt)
	x.push(event[S]{at: x.now + d, kind: evMsg, from: v, to: w, mseq: seq, attempt: attempt, payload: payload})
}

// send assigns the next sequence number on link (v → row i = node w),
// superseding any unacked predecessor, transmits, and arms the RTO timer.
func (x *Executor[S]) send(v, i, w int) {
	ob := &x.out[v][i]
	if ob.acked {
		x.outstandingLinks++
	}
	ob.seq++
	ob.acked = false
	ob.payload = x.state[v]
	ob.attempts = 0
	ob.rto = x.cfg.RTO
	ob.deadline = x.now + ob.rto + x.retryJitter(v, w, ob.seq, 0)
	x.transmit(v, w, ob.payload, ob.seq, 0)
	// One timer per link, not per send: a burst of superseding sends shares
	// the queued evRetry, which re-arms itself against the live deadline.
	if !ob.timer {
		ob.timer = true
		x.push(event[S]{at: ob.deadline, kind: evRetry, from: v, to: w})
	}
}

// broadcast sends v's current state on every incident link.
func (x *Executor[S]) broadcast(v int) {
	for i, w := range x.csr.Neighbors(v) {
		x.send(v, i, int(w))
	}
}

func (x *Executor[S]) sendAck(w, u int, seq uint64, attempt int) {
	if x.lost(x.now, w, u, seq, attempt, saltAck) {
		x.stats.Lost++
		x.noteFault(x.window(x.now))
		return
	}
	d := x.cfg.Delay.draw(x.seed, w, u, seq, attempt)
	x.push(event[S]{at: x.now + d, kind: evAck, from: w, to: u, mseq: seq})
}

// stepNode runs the step function at v against its current views, exactly
// like one kernel round at one node; a reported change broadcasts the new
// state. Down nodes cannot step; paused nodes defer to their evResume.
func (x *Executor[S]) stepNode(v int) {
	if x.isDown(v) || x.isPaused(v) {
		return
	}
	s, ch := x.step(v, x.state[v], x.views[v])
	x.state[v] = s
	if !ch {
		return
	}
	x.stats.Changes++
	x.histAt(x.now).Changed++
	x.stats.LastActivity = x.now
	x.broadcast(v)
}

func (x *Executor[S]) scheduleProc(w int) {
	if x.procPending[w] || x.isDown(w) {
		return
	}
	x.procPending[w] = true
	x.push(event[S]{at: x.now + x.cfg.ProcTicks, kind: evProc, to: w})
}

// ---- dispatch ----------------------------------------------------------

func (x *Executor[S]) dispatch(e event[S]) {
	switch e.kind {
	case evRound:
		x.applyRound(e.from)
	case evRestart:
		x.handleRestart(e)
	case evResume:
		if x.pauseTicks[e.to] == e.at {
			x.stepNode(e.to)
		}
	case evMsg:
		x.handleMsg(e)
	case evAck:
		x.handleAck(e)
	case evRetry:
		x.handleRetry(e)
	case evProc:
		x.handleProc(e)
	case evProbe:
		x.handleProbe()
	}
}

func (x *Executor[S]) handleMsg(e event[S]) {
	w := e.to
	if !x.live.HasEdge(e.from, w) || x.isDown(w) {
		x.stats.Lost++
		return
	}
	m := msgItem[S]{from: e.from, mseq: e.mseq, attempt: e.attempt, payload: e.payload}
	// Newest-wins extends into the queues: each in-link occupies at most
	// one undrained slot, so a burst of superseding sends (or a
	// retransmission racing its original) coalesces into one pending
	// application instead of growing the backlog — the receiver applies
	// the newest state once, which is all the protocol ever promises. A
	// stale straggler dies here instead of costing a mailbox pass.
	for j := x.mboxHead[w]; j < len(x.mbox[w]); j++ {
		if x.mbox[w][j].from == m.from {
			if m.mseq >= x.mbox[w][j].mseq {
				x.mbox[w][j] = m
			} else {
				x.stats.Dups++
			}
			return
		}
	}
	for j := x.blockedHead[w]; j < len(x.blocked[w]); j++ {
		if x.blocked[w][j].from == m.from {
			if m.mseq >= x.blocked[w][j].mseq {
				x.blocked[w][j] = m
			} else {
				x.stats.Dups++
			}
			return
		}
	}
	switch {
	case x.mboxLen(w) < x.cfg.MailboxCap:
		x.mbox[w] = append(x.mbox[w], m)
		x.queued++
		x.scheduleProc(w)
	case x.cfg.Policy == Shed:
		// No ack: the sender's backoff timer is the backpressure signal.
		x.stats.Shed++
	default:
		// Block: the link holds the message until the mailbox drains.
		x.blocked[w] = append(x.blocked[w], m)
		x.queued++
		x.stats.Blocked++
	}
}

// mboxLen and blockedLen are the live (undrained) queue lengths.
func (x *Executor[S]) mboxLen(w int) int    { return len(x.mbox[w]) - x.mboxHead[w] }
func (x *Executor[S]) blockedLen(w int) int { return len(x.blocked[w]) - x.blockedHead[w] }

// qpop removes and returns the head of a head-indexed FIFO queue,
// compacting the backing slice when the dead prefix dominates.
func qpop[S any](q *[]msgItem[S], head *int) msgItem[S] {
	m := (*q)[*head]
	*head++
	switch {
	case *head == len(*q):
		*q = (*q)[:0]
		*head = 0
	case *head >= 8 && *head*2 >= len(*q):
		n := copy(*q, (*q)[*head:])
		*q = (*q)[:n]
		*head = 0
	}
	return m
}

func (x *Executor[S]) handleProc(e event[S]) {
	w := e.to
	x.procPending[w] = false
	if x.isDown(w) || x.mboxLen(w) == 0 {
		return
	}
	m := qpop(&x.mbox[w], &x.mboxHead[w])
	x.queued--
	if x.blockedLen(w) > 0 && x.mboxLen(w) < x.cfg.MailboxCap {
		x.mbox[w] = append(x.mbox[w], qpop(&x.blocked[w], &x.blockedHead[w]))
	}
	if x.mboxLen(w) > 0 {
		x.scheduleProc(w)
	}
	i, ok := x.rowIndex(w, m.from)
	if !ok {
		// The link vanished while the message sat queued.
		x.stats.Lost++
		return
	}
	if m.mseq <= x.inSeq[w][i] {
		// Duplicate or out-of-order stale copy: re-ack, never re-apply.
		// This is the FIFO-per-link guarantee — an older state cannot
		// overwrite a newer view, whatever the network reordered. The
		// re-ack is cumulative: it names the newest applied sequence, so
		// a sender whose fresher ack was lost clears its deficit off this
		// stale round trip instead of paying another RTO.
		x.stats.Dups++
		x.sendAck(w, m.from, x.inSeq[w][i], m.attempt)
		return
	}
	x.inSeq[w][i] = m.mseq
	x.views[w][i] = m.payload
	x.stats.Delivered++
	x.histAt(x.now).Messages++
	x.stats.LastActivity = x.now
	if x.cfg.OnApply != nil {
		x.cfg.OnApply(m.from, w, m.mseq)
	}
	x.sendAck(w, m.from, m.mseq, m.attempt)
	x.stepNode(w)
}

func (x *Executor[S]) handleAck(e event[S]) {
	i, ok := x.rowIndex(e.to, e.from)
	if !ok {
		return
	}
	ob := &x.out[e.to][i]
	// Acks are cumulative per link: seq k acknowledges every sequence up
	// to k, so any ack at or beyond the outstanding (newest) sequence
	// clears the deficit. Receivers never ack beyond what the sender
	// assigned, so >= only fires for the newest-applied re-acks.
	if !ob.acked && e.mseq >= ob.seq {
		ob.acked = true
		x.outstandingLinks--
		x.stats.Acked++
	}
}

// handleRetry services the link's single retransmission timer: disarm, and
// if the newest message is still unacked either retransmit with doubled
// backoff (deadline reached) or sleep until the deadline a fresher send
// installed.
func (x *Executor[S]) handleRetry(e event[S]) {
	i, ok := x.rowIndex(e.from, e.to)
	if !ok {
		return // link removed; outstanding already cancelled
	}
	ob := &x.out[e.from][i]
	ob.timer = false
	if ob.acked {
		return
	}
	if x.now < ob.deadline {
		ob.timer = true
		x.push(event[S]{at: ob.deadline, kind: evRetry, from: e.from, to: e.to})
		return
	}
	ob.attempts++
	x.transmit(e.from, e.to, ob.payload, ob.seq, ob.attempts)
	ob.rto *= 2
	if ob.rto > x.cfg.MaxRTO {
		ob.rto = x.cfg.MaxRTO
	}
	ob.deadline = x.now + ob.rto + x.retryJitter(e.from, e.to, ob.seq, ob.attempts)
	ob.timer = true
	x.push(event[S]{at: ob.deadline, kind: evRetry, from: e.from, to: e.to})
}

// retryJitter spreads a link's retransmission deadline uniformly over half
// an extra backoff window. A synchronized burst — every node's first
// broadcast, a fault window's worth of losses — would otherwise arm every
// timer in the same tick and land them all on the same slot RTO ticks
// later, a thundering-herd retry storm that is also the single largest
// event-queue hot spot. The draw is a pure hash of (seed, link, seq,
// attempt), so replay determinism is untouched, and it is additive, so a
// retransmission never fires before its full backoff elapsed.
func (x *Executor[S]) retryJitter(v, w int, seq uint64, attempt int) Ticks {
	rto := x.cfg.RTO
	if rto < 4 {
		return 0
	}
	h := splitmix64(x.seed ^ 0x517CC1B727220A95 ^ linkKey(v, w) ^ seq*0x9E3779B97F4A7C15 ^ uint64(attempt)<<40)
	return Ticks(h % uint64(rto/2+1))
}

// handleRestart brings a crashed node back: restart with amnesia (state
// reset to init, like the synchronous Restart perturbation), visible to the
// neighborhood via an unconditional broadcast, then one step against the
// preserved views.
func (x *Executor[S]) handleRestart(e event[S]) {
	v := e.to
	if x.downTicks[v] != e.at {
		return // superseded by a later crash
	}
	x.state[v] = x.init(v)
	x.stats.Changes++
	x.histAt(x.now).Changed++
	x.stats.LastActivity = x.now
	x.noteFault(x.window(x.now))
	x.broadcast(v)
	x.stepNode(v)
}

// ---- faults ------------------------------------------------------------

// applyRound materializes round r of the schedule at its window boundary:
// scripted events first, then the probabilistic churn → crash → skew draws
// in the same fixed order as sim.Perturber (on an independent PCG stream).
func (x *Executor[S]) applyRound(r int) {
	topoChanged := false
	var dirty []int
	seen := map[int]bool{}
	addDirty := func(vs ...int) {
		for _, v := range vs {
			if v >= 0 && v < x.n && !seen[v] {
				seen[v] = true
				dirty = append(dirty, v)
			}
		}
	}
	apply := func(e sim.Event) {
		switch e.Op {
		case sim.OpAddEdge:
			if x.skipAdds {
				// Mirror the reversal scenarios: additions are recorded
				// (the variants have no link-addition rule) but not applied.
				x.trace = append(x.trace, sim.Event{Round: r, Op: e.Op, U: e.U, V: e.V})
				return
			}
			fallthrough
		case sim.OpRemoveEdge:
			if !e.ApplyEdge(x.live) {
				return
			}
			topoChanged = true
			addDirty(e.U, e.V)
		case sim.OpCrash:
			if e.U < 0 || e.U >= x.n {
				return
			}
			d := e.For
			if d <= 0 {
				d = 1
			}
			x.crash(e.U, r, d)
		case sim.OpSkip:
			if e.U < 0 || e.U >= x.n {
				return
			}
			d := e.For
			if d <= 0 {
				d = 1
			}
			x.pause(e.U, r, d)
		case sim.OpDrop:
			x.dropWin[dropKey{e.U, e.V, r}] = true
		default:
			return
		}
		x.noteFault(r)
		x.trace = append(x.trace, sim.Event{Round: r, Op: e.Op, U: e.U, V: e.V, For: e.For})
	}

	for _, e := range x.byRound[r] {
		apply(e)
	}
	if r <= x.sch.Horizon {
		every := x.sch.ChurnEvery
		if every <= 0 {
			every = 1
		}
		if (x.sch.ChurnRemove > 0 || x.sch.ChurnAdd > 0) && r%every == 0 {
			for i := 0; i < x.sch.ChurnRemove; i++ {
				edges := x.live.Edges()
				if len(edges) == 0 {
					break
				}
				e := edges[x.rng.IntN(len(edges))]
				apply(sim.Event{Op: sim.OpRemoveEdge, U: e.From, V: e.To})
			}
			for i := 0; i < x.sch.ChurnAdd; i++ {
				for try := 0; try < 16; try++ {
					u, v := x.rng.IntN(x.n), x.rng.IntN(x.n)
					if !x.live.CanAddEdge(u, v) {
						continue
					}
					apply(sim.Event{Op: sim.OpAddEdge, U: u, V: v})
					break
				}
			}
		}
		if x.sch.CrashProb > 0 {
			down := x.sch.Downtime
			if down <= 0 {
				down = 1
			}
			for v := 0; v < x.n; v++ {
				if x.downR[v] >= r {
					continue
				}
				if x.rng.Float64() < x.sch.CrashProb {
					apply(sim.Event{Op: sim.OpCrash, U: v, For: down})
				}
			}
		}
		if x.sch.SkewProb > 0 {
			maxSkew := x.sch.MaxSkew
			if maxSkew <= 0 {
				maxSkew = 1
			}
			for v := 0; v < x.n; v++ {
				if x.downR[v] >= r || x.skipR[v] >= r {
					continue
				}
				if x.rng.Float64() < x.sch.SkewProb {
					apply(sim.Event{Op: sim.OpSkip, U: v, For: 1 + x.rng.IntN(maxSkew)})
				}
			}
		}
	}
	if topoChanged {
		x.refreeze()
	}
	if r+1 <= x.maxFaultRound {
		x.push(event[S]{at: Ticks(r) * x.cfg.RoundTicks, kind: evRound, from: r + 1})
	}
	for _, v := range dirty {
		x.stepNode(v)
	}
}

// crash takes v down for d round windows starting at round r: its mailbox
// and unacked sends are lost (retransmission by live peers restores
// at-least-once end to end), arrivals during downtime are destroyed, and an
// evRestart resets it to its init state.
func (x *Executor[S]) crash(v, r, d int) {
	x.downR[v] = r + d - 1
	x.downTicks[v] = Ticks(r-1+d) * x.cfg.RoundTicks
	lost := x.mboxLen(v) + x.blockedLen(v)
	x.stats.Lost += lost
	x.queued -= lost
	x.mbox[v] = x.mbox[v][:0]
	x.mboxHead[v] = 0
	x.blocked[v] = x.blocked[v][:0]
	x.blockedHead[v] = 0
	for i := range x.out[v] {
		if !x.out[v][i].acked {
			x.out[v][i].acked = true
			x.outstandingLinks--
		}
	}
	x.push(event[S]{at: x.downTicks[v], kind: evRestart, to: v})
}

// pause suspends v's step (not its message processing — views keep
// updating, exactly like the synchronous Inactive perturbation) for d round
// windows; the deferred step runs at resume.
func (x *Executor[S]) pause(v, r, d int) {
	x.skipR[v] = r + d - 1
	x.pauseTicks[v] = Ticks(r-1+d) * x.cfg.RoundTicks
	x.push(event[S]{at: x.pauseTicks[v], kind: evResume, to: v})
}

// ---- run loop ----------------------------------------------------------

// start performs the one-time prologue: round-1 faults (so a round-1 crash
// precedes the initial steps, as in the synchronous kernel), the initial
// activation of every node against its init views, and the first detector
// probe.
func (x *Executor[S]) start() {
	if x.maxFaultRound >= 1 {
		x.applyRound(1)
	}
	for v := 0; v < x.n; v++ {
		x.stepNode(v)
	}
	x.push(event[S]{at: x.cfg.DetectEvery, kind: evProbe})
}

// loop processes events in virtual-time order until the detector declares,
// the budget is exhausted, or the event queue drains.
func (x *Executor[S]) loop() error {
	for x.qLen > 0 {
		if x.peekAt() > x.budgetTicks {
			x.budgetExceeded = true
			x.now = x.budgetTicks
			return nil
		}
		x.eventsSinceCtx++
		if x.eventsSinceCtx >= 512 {
			x.eventsSinceCtx = 0
			if err := x.cfg.Ctx.Err(); err != nil {
				return err
			}
		}
		e := x.pop()
		x.now = e.at
		x.dispatch(e)
		if x.declared {
			return nil
		}
	}
	return x.cfg.Ctx.Err()
}

// finalize freezes the run statistics after the loop ends.
func (x *Executor[S]) finalize() {
	x.stats.VRounds = x.window(x.stats.LastActivity)
	x.stats.History = x.hist
	if !x.stats.Quiesced {
		x.stats.DetectedAt = -1
	}
}

// syncStats assembles the runtime.Stats view of this run — the shape the
// sim invariant registry and recovery measurements consume.
func (x *Executor[S]) syncStats() runtime.Stats {
	st := runtime.Stats{
		Rounds:  x.stats.VRounds,
		Stable:  x.stats.Quiesced,
		History: x.hist,
	}
	for _, rs := range x.hist {
		st.Messages += rs.Messages
	}
	return st
}
