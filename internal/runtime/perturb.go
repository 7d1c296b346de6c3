package runtime

import (
	"errors"
	"math/bits"
	"slices"

	"structura/internal/graph"
)

// Perturbation describes the faults injected into one synchronous round.
// The zero value perturbs nothing. All slices are indexed by node ID and may
// be nil (meaning "no node affected"); Drop may be nil (no message loss).
type Perturbation struct {
	// Topology, when non-nil, replaces the round's CSR snapshot before any
	// message is exchanged — edge churn applied between rounds. The node
	// count must not change.
	Topology *graph.CSR

	// Restart[v] resets v's state to init(v) before the round — a crashed
	// node rejoining with amnesia. The fresh state is visible to neighbors
	// this same round (subject to loss).
	Restart []bool

	// Inactive[v] makes v skip its step this round: its state carries over
	// unchanged and it receives no messages (its neighbor views stay
	// stale). Models both a crashed node and bounded asynchrony (a node
	// whose round is skewed behind its shard).
	Inactive []bool

	// Silence[v] drops every message v sends this round; each neighbor
	// keeps its last delivered view of v. A crashed node is typically both
	// Inactive and Silenced.
	Silence []bool

	// Drop reports whether the single message from -> to is lost this
	// round. It is called concurrently from worker goroutines and must be a
	// pure function of its arguments (derive decisions from a per-round
	// seed, not from mutable state), or the run loses determinism.
	Drop func(from, to int) bool
}

// Perturber injects faults into a run. BeforeRound is called once per round
// (1-based), from the coordinating goroutine, before the round's messages
// are exchanged; the returned Perturbation applies to that round only.
// Active(round) reports whether faults may still occur at or after the
// given round — while true, a no-change round does not end the run, so
// self-stabilization is measured against the full fault window.
type Perturber interface {
	BeforeRound(round int, g *graph.CSR) Perturbation
	Active(round int) bool
}

// WithPerturber threads a fault injector through the run. The round loop
// stays the same, in full and delta mode alike, but message delivery
// becomes buffered: every node keeps the last delivered state of each
// neighbor, so lost or delayed messages leave stale views rather than zero
// values. Stats.Messages then counts messages actually delivered (not M per
// round), and a round with no state change only ends the run once the
// perturber reports itself inactive.
//
// Step functions must not mutate the neighbor-state slice they are handed:
// under a perturber it is the node's persistent view buffer, not a
// per-round copy.
func WithPerturber(p Perturber) Option {
	return func(c *config) { c.perturber = p }
}

var errNodeCount = errors.New("runtime: perturbed topology changed the node count")

// applyFaults applies the round's topology swap and restarts before any
// message moves. It returns the edge-creation handshakes a delta run bills
// for new links.
func (k *kernel[S]) applyFaults() (handshakes int, err error) {
	if t := k.p.Topology; t != nil {
		if t.N() != k.g.N() {
			return 0, errNodeCount
		}
		k.seen, k.pending, handshakes = remap(k.g, t, k.seen, k.pending, k.pc, k.cur, k.frontier)
		k.g = t
	}
	for v, rs := range k.p.Restart {
		if !rs {
			continue
		}
		k.cur[v] = k.init(v)
		if k.delta {
			// The rejoining node broadcasts its reset state this round and
			// re-steps; its observers re-step with the fresh view.
			k.senders.set(v)
			k.frontier.set(v)
			for _, w := range k.g.InNeighbors(v) {
				k.frontier.set(int(w))
			}
		}
	}
	return handshakes, nil
}

// stepPerturbed steps shard idx's frontier nodes under the round's
// perturbation. A delivery refreshes the receiver's view; a silenced sender
// or dropped message leaves it stale; an inactive node carries its state
// over and receives nothing. Full mode attempts every link every round;
// delta mode hands each node's links to deliverOwed and its inactive
// rounds to deferInactive, which keep the per-link retry state.
//
// The body keeps few values live across its loops on purpose: every step
// and drop call clobbers the registers, and each extra live slice costs
// reloads on every node.
func (k *kernel[S]) stepPerturbed(idx int) {
	sh, ws := k.shards[idx], &k.workers[idx]
	g, cur, next, seen, step, p := k.g, k.cur, k.next, k.seen, k.step, &k.p
	ws.err = nil
	v := 0
	defer ws.recoverStep(&v)
	changed, delivered := 0, 0
	for wi := sh.lo >> 6; wi < (sh.hi+63)>>6; wi++ {
		base := wi << 6
		for word := k.frontier[wi]; word != 0; word &= word - 1 {
			v = base + bits.TrailingZeros64(word)
			if p.Inactive != nil && p.Inactive[v] {
				next[v] = cur[v]
				if k.pending != nil {
					k.deferInactive(v, ws)
				}
				continue
			}
			sv := seen[v]
			if k.pending == nil {
				for i, w := range g.Neighbors(v) {
					if p.Silence != nil && p.Silence[w] {
						continue
					}
					if p.Drop != nil && p.Drop(int(w), v) {
						continue
					}
					sv[i] = cur[w]
					delivered++
				}
			} else {
				delivered += k.deliverOwed(v, sv, ws)
			}
			s, ch := step(v, cur[v], sv)
			next[v] = s
			if ch {
				changed++
				if k.changed != nil {
					k.changed.set(v)
				}
			}
		}
	}
	ws.changed, ws.delivered = changed, delivered
}

// deliverOwed is delta mode's delivery to v: only links whose sender
// changed or whose earlier delivery is still pending are attempted. A
// suppressed attempt sets the link's pending bit, a landed one clears it,
// and a node left owing deliveries goes on the carry list so it stays in
// the next frontier until the delivery lands — exactly when full mode's
// view would first refresh. It returns the messages delivered.
func (k *kernel[S]) deliverOwed(v int, sv []S, ws *worker[S]) int {
	cur, pv, p := k.cur, k.pending[v], &k.p
	delivered := 0
	for i, w := range k.g.Neighbors(v) {
		if !pv[i] && !k.senders.get(int(w)) {
			continue
		}
		if (p.Silence != nil && p.Silence[w]) || (p.Drop != nil && p.Drop(int(w), v)) {
			if !pv[i] {
				pv[i] = true
				k.pc[v]++
			}
			continue
		}
		sv[i] = cur[w]
		if pv[i] {
			pv[i] = false
			k.pc[v]--
		}
		delivered++
	}
	if k.pc[v] > 0 {
		ws.carry = append(ws.carry, int32(v))
	}
	return delivered
}

// deferInactive is delta mode's handling of an inactive frontier node: it
// receives nothing and does not step, so every attempted delivery becomes
// pending and the node itself is carried into the next frontier.
func (k *kernel[S]) deferInactive(v int, ws *worker[S]) {
	pv := k.pending[v]
	for i, w := range k.g.Neighbors(v) {
		if !pv[i] && k.senders.get(int(w)) {
			pv[i] = true
			k.pc[v]++
		}
	}
	ws.carry = append(ws.carry, int32(v))
}

// buildSeen initializes every node's neighbor-view buffer to the neighbors'
// init states (the round-0 knowledge the synchronous model assumes).
func buildSeen[S any](g *graph.CSR, cur []S) [][]S {
	n := g.N()
	out := make([][]S, n)
	for v := 0; v < n; v++ {
		row := g.Neighbors(v)
		sv := make([]S, len(row))
		for i, w := range row {
			sv[i] = cur[w]
		}
		out[v] = sv
	}
	return out
}

// remap rebuilds the per-link state after edge churn. Views and retry bits
// on surviving links carry over (staleness preserved); a new link's view
// starts from the neighbor's current state, delivered by the edge-creation
// handshake; a removed link's retries go with it. pending is nil in full
// mode, which keeps no per-link retry state and bills no handshakes. Any node whose observed row changed — length, membership, or order
// — is marked in the current round's frontier: a rewritten row changes the
// step's input vector even if no state moved. Returns the new views, the
// new pending rows, and the number of handshake deliveries.
func remap[S any](old, fresh *graph.CSR, seen [][]S, pending [][]bool, pc []int32, cur []S, frontier bitset) ([][]S, [][]bool, int) {
	n := fresh.N()
	outSeen := make([][]S, n)
	var outPending [][]bool
	if pending != nil {
		outPending = make([][]bool, n)
	}
	handshakes := 0
	for v := 0; v < n; v++ {
		oldRow, newRow := old.Neighbors(v), fresh.Neighbors(v)
		sv := make([]S, len(newRow))
		var pv []bool
		if pending != nil {
			pv = make([]bool, len(newRow))
			pc[v] = 0
		}
		for i, w := range newRow {
			j := slices.Index(oldRow, w)
			if j < 0 {
				sv[i] = cur[w]
				if pv != nil {
					handshakes++
				}
				continue
			}
			sv[i] = seen[v][j]
			if pv != nil && pending[v][j] {
				pv[i] = true
				pc[v]++
			}
		}
		if !slices.Equal(oldRow, newRow) {
			frontier.set(v)
		}
		outSeen[v] = sv
		if pending != nil {
			outPending[v] = pv
		}
	}
	return outSeen, outPending, handshakes
}
