package detector

// Horizon-driven reclamation.  A caller that knows more than the arrival
// order — internal/ddetect's reorderer knows its watermark — can hand the
// detector a release horizon H: a lower bound on the maximal global
// component of every occurrence it will publish (or that a timer will
// stamp) from now on.  Under the 2-granule cross-site order of Definition
// 4.7, a stamp with a component at global ≤ H−3 happens before every such
// future occurrence, composites included: Max keeps only mutually
// concurrent components, so each component of a future composite sits at
// global ≥ H−1 (DESIGN.md §2k has the derivation; primitive-only inputs
// would already allow H−2).  Buffered state whose every future comparison
// such a stamp already decides is dead, and the nodes drop it.  No
// detection changes: a detector given horizons emits exactly what one
// never given a horizon emits.

import "repro/internal/event"

// horizonMargin is how far below the horizon a stamp component must lie
// to precede every future occurrence, composite or primitive.
const horizonMargin = 3

// reclaimer is implemented by nodes holding state a release horizon can
// prove dead.  reclaim drops it and returns the number of buffered
// entries released.
type reclaimer interface {
	reclaim(h int64) int
}

// SetHorizon raises the detector's release horizon to h and lets every
// reclaimable node drop the state h proves dead.  h must bound the
// maximal global component of everything published or fired after the
// call from below; the caller vouches for that (internal/ddetect derives
// it from the reorderer's frontiers).  Horizons are monotone: a value not
// above the current one is ignored.  The reclaimable nodes are collected
// at compile time, so a detector without any pays one comparison.
//
//sentinel:hotpath
func (d *Detector) SetHorizon(h int64) {
	if h <= d.horizon {
		return
	}
	d.horizon = h
	for _, r := range d.reclaimers {
		d.reclaimed += uint64(r.reclaim(h))
	}
}

// reclaim releases every initiator that precedes a dead spoiler — one
// with a component at global ≤ h−horizonMargin, which lies strictly
// inside (initiator, t) for every terminator t still to come, so the
// initiator can never again be eligible in any context — and then the
// spoilers only those initiators kept buffered.  Dropping a never-again
// eligible initiator changes no later choice: eligibility scans skip it
// anyway, and every spoiler a live initiator precedes stays.
//
//sentinel:hotpath
func (n *notNode) reclaim(h int64) int {
	before := len(n.inits) + len(n.e2s)
	dead := n.dead[:0]
	for _, e2 := range n.e2s {
		if e2.Stamp.MinGlobal() <= h-horizonMargin {
			dead = append(dead, e2)
		}
	}
	if len(dead) == 0 {
		return 0
	}
	w := 0
	for _, init := range n.inits {
		if precedesAny(init, dead) {
			init.Release()
			continue
		}
		n.inits[w] = init
		w++
	}
	clear(n.inits[w:])
	n.inits = n.inits[:w]
	clear(dead)
	n.dead = dead[:0]
	n.pruneE2s()
	return before - len(n.inits) - len(n.e2s)
}

// precedesAny reports whether o happens before some occurrence in set.
func precedesAny(o *event.Occurrence, set []*event.Occurrence) bool {
	for _, s := range set {
		if event.StampLess(o, s) {
			return true
		}
	}
	return false
}
