// Package async executes the repository's distributed labeling rules under
// partial synchrony instead of the idealized lock-step round barrier of
// internal/runtime. The paper's schemes (MIS election, distance vectors,
// hypercube safety levels, link reversal) are specified as localized rules;
// Casteigts et al. argue that which structures such rules can compute
// depends critically on the synchrony and delivery assumptions. This
// package removes the strongest assumption — the global round barrier —
// and replaces it with an event-driven message-passing executor:
//
//   - every node owns a bounded mailbox; a full mailbox exerts
//     backpressure on senders (the link holds the message, or the message
//     is shed and recovered by retransmission, per Policy);
//   - every directed link has a seeded delay distribution (fixed, uniform
//     jitter, or bimodal), so messages are delayed, reordered, and — under
//     a fault schedule — lost;
//   - delivery is at-least-once: each transmission arms an ack timeout
//     with exponential backoff, and receivers deduplicate by per-link
//     sequence number, which also restores FIFO-per-link semantics under
//     network reorder (an older state never overwrites a newer one);
//   - individual node loops crash (mailbox and unacked sends lost, state
//     reset to init on restart) and pause (bounded asynchrony) under the
//     same sim.Schedule vocabulary the synchronous harness uses;
//   - a deficit-counting termination detector (the Dijkstra–Scholten
//     deficit generalized to non-diffusing computations, confirmed by the
//     double-probe rule of Mattern's counting schemes) declares a definite
//     quiescence time in virtual ticks, comparable to the synchronous
//     kernel's Stats.History rounds via the RoundTicks window size.
//
// The executor is a deterministic discrete-event simulation: one logical
// event loop orders all activity by (virtual time, scheduling order), every
// random draw comes from a seeded PCG stream or a pure splitmix hash of
// stable identifiers, and so a (scenario, seed, schedule) triple replays
// bit-for-bit at every GOMAXPROCS setting — the same guarantee sim.Explore
// gives for the synchronous path. Scenario runs produce the same sim.World
// the invariant registry judges, and Compare runs a scenario under both
// executors and reports divergence between the final labelings.
package async

import (
	"context"
	"errors"
	"fmt"
	"time"

	"structura/internal/runtime"
)

// Ticks is virtual time. All delays, timeouts, and windows are integer
// tick counts; integer arithmetic keeps replay exact across platforms.
type Ticks = int64

// Policy selects what happens when a message arrives at a full mailbox.
type Policy int

// Backpressure policies.
const (
	// Block is lossless backpressure: the link holds the message and it is
	// admitted, in arrival order, as the receiver drains its mailbox. The
	// sender's newer sends on the same link queue behind it.
	Block Policy = iota
	// Shed drops the arriving message. No ack is generated, so the
	// sender's retransmission timer recovers it later — retry backoff is
	// the backpressure signal.
	Shed
)

func (p Policy) String() string {
	if p == Shed {
		return "shed"
	}
	return "block"
}

// DelayKind selects a per-link delay distribution.
type DelayKind int

// Delay distributions. All draws are pure hashes of (seed, from, to, seq,
// attempt), so a delay does not depend on the order events are processed.
const (
	// Fixed delivers every message exactly Base ticks after transmission.
	// The executor degenerates to a barrier-free but synchronous-looking
	// schedule — the control case.
	Fixed DelayKind = iota
	// Uniform adds jitter drawn uniformly from [0, Spread] to Base.
	// Adjacent messages on one link reorder freely.
	Uniform
	// Bimodal delivers most messages at Base plus small jitter, but one in
	// SlowOneIn takes an extra Spread ticks — the heavy-tail "congested
	// queue" case that maximizes reorder distance.
	Bimodal
)

func (k DelayKind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Bimodal:
		return "bimodal"
	}
	return "fixed"
}

// Delay is a seeded per-link delay model.
type Delay struct {
	Kind      DelayKind
	Base      Ticks // minimum one-way delay
	Spread    Ticks // uniform: jitter width; bimodal: slow-path penalty
	SlowOneIn int   // bimodal: one in this many messages is slow (default 8)
}

// draw returns the one-way delay for transmission `attempt` of message
// (from, to, seq). Pure function of its arguments plus the run seed.
func (d Delay) draw(seed uint64, from, to int, seq uint64, attempt int) Ticks {
	base := d.Base
	if base < 1 {
		base = 1
	}
	if d.Kind == Fixed || d.Spread <= 0 {
		return base
	}
	h := splitmix64(seed ^ 0xA5A5A5A5DEADBEEF ^ linkKey(from, to) ^ seq*0x9E3779B97F4A7C15 ^ uint64(attempt)<<48)
	switch d.Kind {
	case Uniform:
		return base + Ticks(h%uint64(d.Spread+1))
	case Bimodal:
		oneIn := d.SlowOneIn
		if oneIn <= 0 {
			oneIn = 8
		}
		jitter := Ticks(h % 3)
		if h>>32%uint64(oneIn) == 0 {
			return base + d.Spread + jitter
		}
		return base + jitter
	}
	return base
}

// Config tunes one executor run. The zero value is usable: seeded at 0,
// uniform delays spanning half a round window, a Block-policy mailbox of 8,
// and the default round budget.
type Config struct {
	Seed uint64

	// Delay is the per-link delivery delay model. Zero value: uniform
	// jitter in [4, 12] ticks.
	Delay Delay

	// RoundTicks is the width of one virtual "round" window — the unit
	// sim.Schedule rounds map onto and the aggregation bucket for
	// Stats.History, making virtual time comparable to synchronous rounds.
	// Default 16.
	RoundTicks Ticks

	// ProcTicks is the receiver-side cost of processing one mailbox
	// message; it is what makes the bounded mailbox fill under bursts.
	// Default 1.
	ProcTicks Ticks

	// MailboxCap bounds each node's mailbox. Default 8.
	MailboxCap int

	// Policy is the full-mailbox behavior: Block (default) or Shed.
	Policy Policy

	// RTO is the initial ack timeout; it doubles per retransmission up to
	// MaxRTO. Defaults: 4 round windows, capped at 64.
	RTO    Ticks
	MaxRTO Ticks

	// MaxRounds bounds the run in virtual round windows. 0 means the
	// sim.Schedule budget discipline: Budget if set, else Horizon + 4n + 8.
	MaxRounds int

	// DetectEvery is the termination-detector probe period. Default
	// RoundTicks. Quiescence is declared at the second consecutive passive
	// probe, so detection lag is between one and two probe periods.
	DetectEvery Ticks

	// Ctx cancels the run between events: the loop stops cleanly, leaving
	// states and statistics consistent as of the last processed event, and
	// Run returns the context's error.
	Ctx context.Context

	// OnApply, when non-nil, observes every applied (non-duplicate)
	// message: instrumentation for tests asserting per-link ordering. It
	// must not call back into the executor.
	OnApply func(from, to int, seq uint64)
}

// ErrConfig reports a Config whose resolved values are unusable.
var ErrConfig = errors.New("async: invalid config")

// Validate resolves the documented zero-value defaults and checks that the
// resolved configuration is internally consistent: strictly positive time
// quantities and mailbox capacity, a non-negative round budget, and an RTO
// window that is neither zero nor inverted (0 < RTO ≤ MaxRTO). The
// defaulting order makes unset-field combinations safe by construction —
// RoundTicks resolves before the windows derived from it (RTO = 4·RoundTicks,
// MaxRTO = 64·RoundTicks, then MaxRTO is floored at RTO) — so Validate
// exists to catch the explicit-value failure modes defaults cannot:
// RoundTicks large enough that a derived window overflows Ticks, or a
// negative MaxRounds. NewExecutor runs this check on every config.
func (c Config) Validate() error {
	r := c.withDefaults()
	switch {
	case r.RoundTicks < 1:
		return fmt.Errorf("%w: RoundTicks %d (want >= 1)", ErrConfig, r.RoundTicks)
	case r.ProcTicks < 1:
		return fmt.Errorf("%w: ProcTicks %d (want >= 1)", ErrConfig, r.ProcTicks)
	case r.MailboxCap < 1:
		return fmt.Errorf("%w: MailboxCap %d (want >= 1)", ErrConfig, r.MailboxCap)
	case r.RTO < 1:
		return fmt.Errorf("%w: RTO %d (want >= 1; derived 4*RoundTicks overflowed?)", ErrConfig, r.RTO)
	case r.MaxRTO < r.RTO:
		return fmt.Errorf("%w: MaxRTO %d < RTO %d (inverted backoff window)", ErrConfig, r.MaxRTO, r.RTO)
	case r.DetectEvery < 1:
		return fmt.Errorf("%w: DetectEvery %d (want >= 1)", ErrConfig, r.DetectEvery)
	case r.MaxRounds < 0:
		return fmt.Errorf("%w: MaxRounds %d (want >= 0)", ErrConfig, r.MaxRounds)
	case r.Delay.Base < 0 || r.Delay.Spread < 0:
		return fmt.Errorf("%w: negative delay (base %d, spread %d)", ErrConfig, r.Delay.Base, r.Delay.Spread)
	}
	return nil
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.RoundTicks <= 0 {
		c.RoundTicks = 16
	}
	if c.ProcTicks <= 0 {
		c.ProcTicks = 1
	}
	if c.MailboxCap <= 0 {
		c.MailboxCap = 8
	}
	if c.Delay.Base <= 0 && c.Delay.Spread <= 0 {
		c.Delay = Delay{Kind: Uniform, Base: 4, Spread: 8}
	}
	if c.RTO <= 0 {
		c.RTO = 4 * c.RoundTicks
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 64 * c.RoundTicks
	}
	if c.MaxRTO < c.RTO {
		c.MaxRTO = c.RTO
	}
	if c.DetectEvery <= 0 {
		c.DetectEvery = c.RoundTicks
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// Stats quantifies one asynchronous run in both transport and
// virtual-time measures.
type Stats struct {
	// Transport accounting. Sent counts first transmissions, Retries the
	// retransmissions on top; Delivered counts messages applied at a
	// receiver (each exactly once per sequence number); Dups are
	// retransmissions discarded by receiver-side dedup; Shed and Blocked
	// are the two backpressure outcomes at full mailboxes; Lost counts
	// transmissions destroyed in flight (fault loss, removed links,
	// crashed receivers).
	Sent, Retries, Delivered, Acked, Dups, Shed, Blocked, Lost int

	// Changes counts node state changes (the async analogue of the
	// kernel's per-round Changed sum).
	Changes int

	// LastActivity is the virtual time of the last application-level
	// event: the ground-truth quiescence time the detector is judged
	// against.
	LastActivity Ticks

	// DetectedAt is the virtual time the deficit-counting detector
	// declared quiescence; -1 if the run hit its budget first.
	DetectedAt Ticks

	// Quiesced reports a detector-confirmed termination within budget.
	Quiesced bool

	// VRounds is LastActivity expressed in round windows (1-based,
	// rounded up) — the number directly comparable to the synchronous
	// kernel's Stats.Rounds.
	VRounds int

	// History aggregates per round window, in the synchronous kernel's
	// RoundStats vocabulary: Changed is state changes and Messages is
	// applied deliveries inside the window. Rounds-to-restabilize reads
	// off it exactly as for the synchronous path.
	History []runtime.RoundStats

	// Wall is the real time the event loop ran.
	Wall time.Duration
}

// RetryOverhead is the fraction of transmissions that were
// retransmissions: Retries / (Sent + Retries).
func (s Stats) RetryOverhead() float64 {
	total := s.Sent + s.Retries
	if total == 0 {
		return 0
	}
	return float64(s.Retries) / float64(total)
}

// splitmix64 is the SplitMix64 finalizer, the same bijective avalanche mix
// the sim perturber uses for order-independent per-message decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// chance converts a hash to a uniform float in [0,1).
func chance(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// linkKey packs a directed link into a hashable word.
func linkKey(from, to int) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}
