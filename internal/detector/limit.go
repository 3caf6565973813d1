package detector

// Buffer limiting: the explicitly lossy bound on retained state.
//
// Arrival order alone cannot prove state dead: a NOT initiator spoiled by
// an E2 can still pair with a later terminator concurrent with the
// spoiler.  A release horizon can (SetHorizon, horizon.go): once every
// future occurrence lies above the spoiler in the partial order, the
// initiator is dead and reclaiming it loses nothing.  What no horizon
// bounds — an Unrestricted context never consumes, an initiator whose
// terminator never comes stays eligible — a deployment can cap instead:
// SetBufferLimit caps every per-node buffer, evicting the oldest entries
// first and counting what was dropped, so memory is bounded at an
// explicit, observable recall cost.

// trimmable is implemented by nodes with evictable buffers.
type trimmable interface {
	trim(max int) int
}

// trimOldest drops the oldest entries of a buffer beyond max.
func trimOldest[T any](buf []T, max int) ([]T, int) {
	if max <= 0 || len(buf) <= max {
		return buf, 0
	}
	drop := len(buf) - max
	copy(buf, buf[drop:])
	return buf[:max], drop
}

func (n *binaryNode) trim(max int) int {
	dropped := 0
	for i := range n.buf {
		var d int
		n.buf[i], d = trimOldest(n.buf[i], max)
		dropped += d
	}
	return dropped
}

func (n *anyNode) trim(max int) int {
	dropped := 0
	for i := range n.buf {
		var d int
		n.buf[i], d = trimOldest(n.buf[i], max)
		dropped += d
	}
	return dropped
}

func (n *notNode) trim(max int) int {
	var d1, d2 int
	n.inits, d1 = trimOldest(n.inits, max)
	n.e2s, d2 = trimOldest(n.e2s, max)
	return d1 + d2
}

func (n *aperiodicNode) trim(max int) int {
	var d int
	n.windows, d = trimOldest(n.windows, max)
	return d
}

func (n *periodicNode) trim(max int) int {
	if max <= 0 || len(n.windows) <= max {
		return 0
	}
	drop := len(n.windows) - max
	// Evicted periodic windows must disarm their timers.
	for _, w := range n.windows[:drop] {
		w.closed = true
	}
	copy(n.windows, n.windows[drop:])
	n.windows = n.windows[:max]
	return drop
}

// SetBufferLimit caps every operator node's buffers at max occurrences
// (windows for A/A*/P/P*), evicting oldest-first after each publication.
// Zero (the default) means unlimited.  Dropped entries are counted in
// DroppedOccurrences; a non-zero count means detection recall was traded
// for bounded memory.
func (d *Detector) SetBufferLimit(max int) {
	if max < 0 {
		max = 0
	}
	d.bufferLimit = max
}

// DroppedOccurrences returns the number of buffered entries evicted by
// the buffer limit so far.
func (d *Detector) DroppedOccurrences() uint64 { return d.dropped }

// enforceLimit trims every node; called after each publication when a
// limit is set.
func (d *Detector) enforceLimit() {
	if d.bufferLimit <= 0 {
		return
	}
	for _, n := range d.nodes {
		if tn, ok := n.(trimmable); ok {
			d.dropped += uint64(tn.trim(d.bufferLimit))
		}
	}
}
