package runtime

import (
	"errors"
	"fmt"
	"math/bits"

	"structura/internal/graph"
)

// WithDelta switches the round loop from full mode, which steps every node
// every round, to delta-frontier ("dirty") stepping: a node is stepped in
// round r only if its inputs could have changed — it changed itself in round
// r-1, one of the neighbors it observes changed, it was restarted, its
// adjacency row was rewritten by churn, or a delivery to it is still pending
// after suppression. Because step functions are pure, skipping a node whose
// inputs are unchanged and whose last step reported no change cannot alter
// the outcome: final states, Stats.Rounds, and per-round Changed counts are
// bit-identical to full mode, on both the clean and the perturbed path,
// across worker counts, and through checkpoint/resume. Both modes run the
// same loop; delta mode narrows the frontier each round and commits the
// nodes it stepped instead of swapping state arrays.
//
// Message accounting is where the two modes intentionally differ: a full
// clean round charges one message per directed link, while delta mode
// counts messages actually sent — a node broadcasts to the nodes observing
// it only in the round after it changed (plus restart broadcasts,
// suppressed-delivery retries and, under churn, edge-creation handshakes).
// In particular a round with an empty frontier reports 0 messages. This
// makes the clean and perturbed paths consistent with each other: under a
// fault-free perturber both count exactly the deliveries triggered by state
// changes. Full-mode accounting is what sim, labeling and the paper's
// complexity figures report; heal's MIS recompute and partition's exchange
// model use delta accounting.
//
// Correctness requires the step contract to be honest: step must report
// ch == true if and only if the returned state differs from self. A step
// that mutates state while reporting "unchanged" already breaks full mode's
// stability detection; under WithDelta it would also leave downstream nodes
// unstepped.
func WithDelta() Option {
	return func(c *config) { c.delta = true }
}

// frontierMessages is the messages the nodes of set will send next round:
// each changed node broadcasts to the nodes that observe it, i.e. its
// in-neighbors under the "v reads Neighbors(v)" convention.
func frontierMessages(g *graph.CSR, set bitset) int {
	total := 0
	for wi, w := range set {
		base := wi << 6
		for w != 0 {
			total += g.InDegree(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return total
}

// rebuildFrontier recomputes frontier = dirty ∪ readers(dirty), choosing
// direction by cost: when the changed set's total in-degree is small the
// sweep pushes bits along reverse rows; when it is dense every node pulls
// over its forward row (parallelized across the word-aligned shards, with
// early exit on the first changed neighbor). pushCost must be
// frontierMessages(g, dirty).
func rebuildFrontier(g *graph.CSR, frontier, dirty bitset, pushCost int, shards []shard) {
	frontier.reset()
	if pushCost <= g.N()/4 {
		for wi, w := range dirty {
			base := wi << 6
			for w != 0 {
				u := base + bits.TrailingZeros64(w)
				w &= w - 1
				frontier.set(u)
				for _, r := range g.InNeighbors(u) {
					frontier.set(int(r))
				}
			}
		}
		return
	}
	forShards(len(shards), func(i int) { pullRange(g, frontier, dirty, shards[i].lo, shards[i].hi) })
}

// pullRange marks v ∈ [lo, hi) dirty if v changed or any neighbor v observes
// changed. Writes stay inside [lo, hi)'s bitset words (shards word-aligned).
func pullRange(g *graph.CSR, frontier, dirty bitset, lo, hi int) {
	for v := lo; v < hi; v++ {
		if dirty.get(v) {
			frontier.set(v)
			continue
		}
		for _, w := range g.Neighbors(v) {
			if dirty.get(int(w)) {
				frontier.set(v)
				break
			}
		}
	}
}

// commit copies shard idx's stepped nodes from next into cur. It runs after
// the step barrier, and shards own disjoint node ranges, so parallel commit
// is race-free and order-independent.
func (k *kernel[S]) commit(idx int) {
	sh, cur, next := k.shards[idx], k.cur, k.next
	for wi := sh.lo >> 6; wi < (sh.hi+63)>>6; wi++ {
		base := wi << 6
		for word := k.frontier[wi]; word != 0; word &= word - 1 {
			v := base + bits.TrailingZeros64(word)
			cur[v] = next[v]
		}
	}
}

// advanceFrontier turns the committed round's changed set into the next
// round's senders and rebuilds the frontier as their readers plus every
// carried node (pending retries and deferred inactive steps). It returns
// the senders' broadcast cost, the clean path's next message bill.
func (k *kernel[S]) advanceFrontier() int {
	k.senders, k.changed = k.changed, k.senders
	k.changed.reset()
	pushCost := frontierMessages(k.g, k.senders)
	rebuildFrontier(k.g, k.frontier, k.senders, pushCost, k.shards)
	for i := range k.workers {
		for _, v := range k.workers[i].carry {
			k.frontier.set(int(v))
		}
		k.workers[i].carry = k.workers[i].carry[:0]
	}
	return pushCost
}

// restoreFrontier loads a delta checkpoint's senders, frontier and, on the
// perturbed path, pending link state.
func (k *kernel[S]) restoreFrontier(cp *Checkpoint[S], perturbed bool) error {
	n := k.g.N()
	if perturbed {
		if cp.Pending == nil {
			return errors.New("runtime: resume into a perturbed delta run needs a checkpoint with Pending link state")
		}
		if len(cp.Pending) != n {
			return fmt.Errorf("runtime: resume checkpoint has %d pending rows for %d nodes", len(cp.Pending), n)
		}
		k.pending = snapshotPending(cp.Pending)
		k.pc = make([]int32, n)
		for v, row := range k.pending {
			if len(row) != k.g.Degree(v) {
				return fmt.Errorf("runtime: resume checkpoint pending row %d has %d links, topology has %d",
					v, len(row), k.g.Degree(v))
			}
			for _, b := range row {
				if b {
					k.pc[v]++
				}
			}
		}
	}
	if err := checkFrontierIDs(cp.Changed, n, "Changed"); err != nil {
		return err
	}
	if err := checkFrontierIDs(cp.Frontier, n, "Frontier"); err != nil {
		return err
	}
	k.senders.reset()
	for _, v := range cp.Changed {
		k.senders.set(v)
	}
	k.frontier.reset()
	for _, v := range cp.Frontier {
		k.frontier.set(v)
	}
	return nil
}

// checkFrontierIDs validates checkpointed node lists against the run size.
func checkFrontierIDs(ids []int, n int, field string) error {
	for _, v := range ids {
		if v < 0 || v >= n {
			return fmt.Errorf("runtime: resume checkpoint %s contains node %d (n=%d)", field, v, n)
		}
	}
	return nil
}
