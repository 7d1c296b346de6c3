package async

import "time"

// Termination detection.
//
// The executor tracks the Dijkstra–Scholten deficit generalized to a
// non-diffusing computation: outstandingLinks is the number of directed
// links whose newest message has not been acked (each link carries at most
// one outstanding message under the newest-wins protocol, so the per-link
// deficit is 0 or 1), queued counts messages received but not yet
// processed, and pendingWork counts every scheduled non-probe event — sends
// in flight, retry timers, deferred steps, and the fault timeline itself
// (the detector must not declare while scheduled faults remain, the same
// discipline as sim.Perturber.Active). The system is passive exactly when
// all three are zero.
//
// A single passive observation is not sufficient in a real distributed
// counting scheme: counters are read at different moments and activity may
// slip between reads. The executor therefore applies Mattern's
// double-counting rule: quiescence is declared only at the second
// consecutive passive probe whose activity fingerprint (sends, deliveries,
// state changes, acks) is unchanged from the first, proving no activity
// occurred in between. Inside this single-loop simulation the first passive
// probe is already conclusive; keeping the protocol-faithful confirmation
// costs one probe period and keeps DetectedAt honest about detection lag —
// LastActivity is the ground truth it is judged against.

// fingerprint snapshots the monotone activity counters the double-counting
// rule compares across consecutive probes.
func (x *Executor[S]) fingerprint() [4]int {
	return [4]int{
		x.stats.Sent + x.stats.Retries,
		x.stats.Delivered,
		x.stats.Changes,
		x.stats.Acked,
	}
}

// handleProbe runs one detector probe and re-arms the probe chain unless
// quiescence was declared. Probes are excluded from pendingWork so the
// detector never observes itself as activity.
func (x *Executor[S]) handleProbe() {
	if x.passive() {
		fp := x.fingerprint()
		if x.prevPassive && fp == x.prevFP {
			x.declared = true
			x.stats.Quiesced = true
			x.stats.DetectedAt = x.now
			return
		}
		x.prevPassive = true
		x.prevFP = fp
	} else {
		x.prevPassive = false
	}
	x.push(event[S]{at: x.now + x.cfg.DetectEvery, kind: evProbe})
}

func timeNow() time.Time                  { return time.Now() }
func timeSince(t time.Time) time.Duration { return time.Since(t) }
