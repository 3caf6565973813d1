package detector

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
)

// emitFunc receives an occurrence produced by a node.
type emitFunc func(*event.Occurrence)

// opNode is one operator in the event graph.  Constituent occurrences are
// delivered with onChild; idx identifies which constituent expression the
// occurrence belongs to (in the order of expr.Node.Children).  Nodes call
// their wired output for every composite occurrence they produce.
//
// The contract all nodes rely on: onChild is invoked in an arrival order
// that is a linear extension of the composite happen-before order of
// Definition 5.3 — if an occurrence a with T(a) < T(b) exists, a is
// delivered before b.  Occurrences delivered later are therefore never
// happen-before buffered ones.
//
// Buffering follows the pool ledger (event.Pool): every pointer a node
// stores past onChild's return — a buffer slot, a window, a timer
// closure — takes a reference with Retain, and every removal drops it
// with Release.  Emission goes through Detector.emit, which retains the
// constituents into the composite and drops the composite's creator
// reference after the output chain returns.  With no pool attached every
// ledger call is a no-op, so unpooled detection is bit-identical.
type opNode interface {
	onChild(idx int, o *event.Occurrence)
}

// timeDriven is implemented by nodes that schedule timers (P, P*, PLUS).
type timeDriven interface {
	opNode
	bindScheduler(s scheduler) error
}

// scheduler is the timer service operator nodes use; the Detector
// implements it over a TimeSource and a deterministic timer heap.
type scheduler interface {
	now() clock.Microticks
	stampAt(ref clock.Microticks) core.Stamp
	schedule(due clock.Microticks, fire func(due clock.Microticks))
}

// retain takes a buffer reference on o and returns it, so appends read
// naturally: buf = append(buf, retain(o)).
//
//sentinel:hotpath
func retain(o *event.Occurrence) *event.Occurrence {
	o.Retain()
	return o
}

// releaseAll drops the buffer references of every occurrence in buf, nils
// the slots (consumed occurrences must not stay reachable — or recycled
// ones dangling — through the buffer's capacity) and returns the empty
// slice for reuse.
func releaseAll(buf []*event.Occurrence) []*event.Occurrence {
	for i, o := range buf {
		buf[i] = nil
		o.Release()
	}
	return buf[:0]
}

// passNode wraps a bare constituent as a named composite occurrence, used
// when a definition's root is a single primitive or named event.
type passNode struct {
	det  *Detector
	name string
	out  emitFunc
}

//sentinel:hotpath
func (n *passNode) onChild(_ int, o *event.Occurrence) {
	n.det.emit(n.out, n.name, o)
}

// orNode implements OR: the composite occurs whenever either constituent
// occurs.  There is no initiator/terminator pairing, so the parameter
// context is irrelevant.
type orNode struct {
	det  *Detector
	name string
	out  emitFunc
}

//sentinel:hotpath
func (n *orNode) onChild(_ int, o *event.Occurrence) {
	n.det.emit(n.out, n.name, o)
}

// binaryNode implements AND (seq=false) and SEQ (seq=true).
//
// For SEQ the initiator is always the left constituent and the pairing
// requires T(init) < T(term) under the composite happen-before order
// (Section 5.3: (E1;E2)(ts) ⇔ ∃t1,t2: E1(t1) ∧ E2(t2) ∧ t1 < t2).
//
// For AND either constituent may initiate; an occurrence of one side
// terminates against buffered occurrences of the other side with no
// ordering requirement (Section 5.3: conjunction in any order).
type binaryNode struct {
	det  *Detector
	name string
	ctx  Context
	seq  bool
	out  emitFunc

	buf [2][]*event.Occurrence
	// eligible is scratch for the per-terminator initiator scan, reused
	// across onChild calls so steady-state detection does not allocate.
	eligible []int
}

//sentinel:hotpath
func (n *binaryNode) onChild(idx int, o *event.Occurrence) {
	if n.seq {
		n.onSeq(idx, o)
	} else {
		n.onAnd(idx, o)
	}
}

func (n *binaryNode) onSeq(idx int, o *event.Occurrence) {
	if idx == 0 { // initiator
		if n.ctx == Recent {
			n.buf[0] = releaseAll(n.buf[0])
		}
		n.buf[0] = append(n.buf[0], retain(o))
		return
	}
	// Terminator: eligible initiators happen before it.
	eligible := n.eligible[:0]
	for i, init := range n.buf[0] {
		if event.StampLess(init, o) {
			eligible = append(eligible, i)
		}
	}
	n.eligible = eligible[:0]
	if len(eligible) == 0 {
		return
	}
	switch n.ctx {
	case Unrestricted, Recent:
		for _, i := range eligible {
			n.det.emit(n.out, n.name, n.buf[0][i], o)
		}
	case Chronicle:
		n.det.emit(n.out, n.name, n.buf[0][eligible[0]], o)
		n.buf[0] = removeIndices(n.buf[0], eligible[:1])
	case Continuous:
		for _, i := range eligible {
			n.det.emit(n.out, n.name, n.buf[0][i], o)
		}
		n.buf[0] = removeIndices(n.buf[0], eligible)
	case Cumulative:
		//lint:allow hotalloc — the constituents slice is retained by the emitted occurrence (or copied into pooled storage); the allocation is the product, not garbage
		constituents := make([]*event.Occurrence, 0, len(eligible)+1)
		for _, i := range eligible {
			constituents = append(constituents, n.buf[0][i])
		}
		constituents = append(constituents, o)
		n.det.emit(n.out, n.name, constituents...)
		n.buf[0] = removeIndices(n.buf[0], eligible)
	}
}

func (n *binaryNode) onAnd(idx int, o *event.Occurrence) {
	other := 1 - idx
	if len(n.buf[other]) == 0 {
		if n.ctx == Recent {
			n.buf[idx] = releaseAll(n.buf[idx])
		}
		n.buf[idx] = append(n.buf[idx], retain(o))
		return
	}
	// emitOne pairs the arriving occurrence with a single buffered
	// partner, left child first regardless of arrival.  It hands the pair
	// to emit as plain variadic arguments: the four single-partner
	// contexts used to wrap each partner in a transient one-element slice
	// per emission, which was pure garbage on the detect path.
	emitOne := func(b *event.Occurrence) {
		if idx == 1 {
			n.det.emit(n.out, n.name, b, o)
		} else {
			n.det.emit(n.out, n.name, o, b)
		}
	}
	switch n.ctx {
	case Unrestricted:
		for _, b := range n.buf[other] {
			emitOne(b)
		}
		n.buf[idx] = append(n.buf[idx], retain(o))
	case Recent:
		emitOne(n.buf[other][len(n.buf[other])-1])
		n.buf[idx] = append(releaseAll(n.buf[idx]), retain(o))
	case Chronicle:
		emitOne(n.buf[other][0])
		n.buf[other] = removeIndices(n.buf[other], zeroIndex)
	case Continuous:
		for _, b := range n.buf[other] {
			emitOne(b)
		}
		n.buf[other] = releaseAll(n.buf[other])
	case Cumulative:
		others := n.buf[other]
		//lint:allow hotalloc — the constituents slice is retained by the emitted occurrence (or copied into pooled storage); the allocation is the product, not garbage
		constituents := make([]*event.Occurrence, 0, len(others)+1)
		if idx == 1 {
			constituents = append(append(constituents, others...), o)
		} else {
			constituents = append(append(constituents, o), others...)
		}
		n.det.emit(n.out, n.name, constituents...)
		n.buf[other] = releaseAll(n.buf[other])
	}
}

// anyNode implements ANY(m, E1 … En): the composite occurs when
// occurrences of m distinct constituent expressions are available, the
// current occurrence among them.
//
// Context policies: Recent keeps the most recent occurrence of each
// constituent and does not consume; Chronicle and Continuous use the
// oldest buffered occurrence of each selected constituent and consume the
// occurrences used (for ANY the two coincide in this implementation —
// there is a single terminator, so "close all open windows" degenerates to
// the FIFO pairing); Cumulative emits one composite containing every
// buffered occurrence of every non-empty constituent and consumes them
// all; Unrestricted emits one composite per selection of m−1 buffered
// occurrences of distinct other constituents and consumes nothing.
type anyNode struct {
	det  *Detector
	name string
	ctx  Context
	m    int
	out  emitFunc

	buf [][]*event.Occurrence
	// Scratch reused across onChild calls: eligible holds the child
	// indexes with buffered occurrences, chooseSel backs the subset
	// enumeration, and combo assembles each emitted selection before it
	// is ordered.  None of them escapes an emission (emitOrdered copies
	// into the fresh constituents slice the Occurrence retains).
	eligible  []int
	chooseSel []int
	combo     []childOcc
	// ordered is a second childOcc scratch: emitOrdered sorts its input
	// in place, so combinations assembled in the shared combo backing are
	// copied here first to leave the recursion's accumulator untouched.
	ordered []childOcc
}

// childOcc pairs a constituent occurrence with the child index it arrived
// on, so composites can list constituents in child-index order
// deterministically regardless of arrival order.
type childOcc struct {
	c   int
	occ *event.Occurrence
}

//sentinel:hotpath
func (n *anyNode) onChild(idx int, o *event.Occurrence) {
	if n.ctx == Recent {
		n.buf[idx] = releaseAll(n.buf[idx])
	}
	n.buf[idx] = append(n.buf[idx], retain(o))

	eligible := n.eligible[:0] // children with occurrences available, o's child first
	eligible = append(eligible, idx)
	for c := range n.buf {
		if c != idx && len(n.buf[c]) > 0 {
			eligible = append(eligible, c)
		}
	}
	n.eligible = eligible[:0]
	if len(eligible) < n.m {
		return
	}
	switch n.ctx {
	case Unrestricted:
		others := eligible[1:]
		n.chooseSel = choose(n.chooseSel, others, n.m-1, func(sel []int) {
			n.emitCombo(childOcc{c: idx, occ: o}, sel)
		})
		// o stays buffered (already appended).
	case Recent:
		sel := n.combo[:0]
		for _, c := range eligible[:n.m] {
			sel = append(sel, childOcc{c: c, occ: n.buf[c][len(n.buf[c])-1]})
		}
		n.emitOrdered(sel)
		n.combo = sel[:0]
	case Chronicle, Continuous:
		sel := n.combo[:0]
		used := eligible[:n.m]
		for _, c := range used {
			sel = append(sel, childOcc{c: c, occ: n.buf[c][0]})
		}
		n.emitOrdered(sel)
		n.combo = sel[:0]
		for _, c := range used {
			n.buf[c] = removeIndices(n.buf[c], zeroIndex)
		}
	case Cumulative:
		sel := n.combo[:0]
		for _, c := range eligible {
			for _, b := range n.buf[c] {
				sel = append(sel, childOcc{c: c, occ: b})
			}
		}
		n.emitOrdered(sel)
		n.combo = sel[:0]
		// Consume after the emission holds its constituent references.
		for _, c := range eligible {
			n.buf[c] = releaseAll(n.buf[c])
		}
	}
}

// zeroIndex is the shared index slice for "remove the head" compactions.
var zeroIndex = []int{0}

// emitCombo assembles one combination — one buffered occurrence per
// selected other child, with o fixed — in the combo scratch and emits
// it.  The combination fan-out walks sel depth-first without allocating
// per emission.
func (n *anyNode) emitCombo(o childOcc, sel []int) {
	if cap(n.combo) < n.m {
		// Pre-size so recursive appends never outgrow the scratch (depth
		// is at most m), which would silently drop the reuse.
		//lint:allow hotalloc — scratch grown once to m and reused across every later emission
		n.combo = make([]childOcc, 0, n.m)
	}
	n.emitCombos(o, sel, 0, n.combo[:0])
}

// emitCombos emits one composite per combination of one buffered
// occurrence from each selected other child, with o fixed.  acc rides the
// shared combo scratch — each recursion level appends its choice and the
// slice header truncates on the way out; the completed combination is
// copied into the ordered scratch because emitOrdered sorts in place and
// must not permute the live accumulator under the recursion.
func (n *anyNode) emitCombos(o childOcc, sel []int, depth int, acc []childOcc) {
	if depth == len(sel) {
		n.ordered = append(n.ordered[:0], acc...)
		n.ordered = append(n.ordered, o)
		n.emitOrdered(n.ordered)
		return
	}
	for _, b := range n.buf[sel[depth]] {
		n.emitCombos(o, sel, depth+1, append(acc, childOcc{c: sel[depth], occ: b}))
	}
}

// emitOrdered emits with constituents sorted into child-index order (ties
// by buffer order) for deterministic parameter lists.
func (n *anyNode) emitOrdered(sel []childOcc) {
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].c < sel[j].c })
	//lint:allow hotalloc — the constituents slice is retained by the emitted occurrence (or copied into pooled storage); the allocation is the product, not garbage
	constituents := make([]*event.Occurrence, len(sel))
	for i, s := range sel {
		constituents[i] = s.occ
	}
	n.det.emit(n.out, n.name, constituents...)
}

// choose invokes fn with each size-k subset of items, preserving order.
// The selection slice handed to fn is a single scratch buffer reused
// across invocations — fn must not retain it.  scratch provides the
// backing array; the (possibly grown) buffer is returned for the caller
// to keep, so steady-state enumeration allocates nothing per combination.
func choose(scratch []int, items []int, k int, fn func([]int)) []int {
	if k == 0 {
		fn(nil)
		return scratch
	}
	if k > len(items) {
		return scratch
	}
	if cap(scratch) < k {
		//lint:allow hotalloc — scratch grown once to k and returned to the caller for reuse across combinations
		scratch = make([]int, 0, k)
	}
	sel := scratch[:0]
	var rec func(start int)
	rec = func(start int) {
		if len(sel) == k {
			fn(sel)
			return
		}
		for i := start; i <= len(items)-(k-len(sel)); i++ {
			sel = append(sel, items[i])
			rec(i + 1)
			sel = sel[:len(sel)-1]
		}
	}
	rec(0)
	return sel[:0]
}

// notNode implements NOT(E2)[E1, E3]: the composite occurs when E3 occurs
// after an initiator E1 with no occurrence of E2 in the open interval
// (T(e1), T(e3)) of Definition 5.5.  Children are wired in AST order:
// 0 = E2 (the absent event), 1 = E1 (initiator), 2 = E3 (terminator).
//
// Because arrival order is a linear extension of happen-before, an E2
// delivered before an initiator can never satisfy T(e1) < T(e2), so E2
// occurrences are buffered only while some live initiator precedes them.
type notNode struct {
	det  *Detector
	name string
	ctx  Context
	out  emitFunc

	inits []*event.Occurrence
	e2s   []*event.Occurrence
	// eligible is scratch for the per-terminator initiator scan; dead is
	// scratch for reclaim's horizon-dead spoilers.
	eligible []int
	dead     []*event.Occurrence
}

//sentinel:hotpath
func (n *notNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 1: // initiator E1
		if n.ctx == Recent {
			n.inits = releaseAll(n.inits)
			n.pruneE2s()
		}
		n.inits = append(n.inits, retain(o))
	case 0: // E2 — potential spoiler
		for _, init := range n.inits {
			if event.StampLess(init, o) {
				n.e2s = append(n.e2s, retain(o))
				return
			}
		}
		// No live initiator precedes it and none arriving later can
		// (linear extension), so it can never spoil: drop.
	case 2: // terminator E3
		eligible := n.eligible[:0]
		for i, init := range n.inits {
			if event.StampLess(init, o) && !n.spoiled(init, o) {
				eligible = append(eligible, i)
			}
		}
		n.eligible = eligible[:0]
		if len(eligible) == 0 {
			return
		}
		switch n.ctx {
		case Unrestricted, Recent:
			for _, i := range eligible {
				n.det.emit(n.out, n.name, n.inits[i], o)
			}
		case Chronicle:
			n.det.emit(n.out, n.name, n.inits[eligible[0]], o)
			n.inits = removeIndices(n.inits, eligible[:1])
			n.pruneE2s()
		case Continuous:
			for _, i := range eligible {
				n.det.emit(n.out, n.name, n.inits[i], o)
			}
			n.inits = removeIndices(n.inits, eligible)
			n.pruneE2s()
		case Cumulative:
			//lint:allow hotalloc — the constituents slice is retained by the emitted occurrence (or copied into pooled storage); the allocation is the product, not garbage
			constituents := make([]*event.Occurrence, 0, len(eligible)+1)
			for _, i := range eligible {
				constituents = append(constituents, n.inits[i])
			}
			constituents = append(constituents, o)
			n.det.emit(n.out, n.name, constituents...)
			n.inits = removeIndices(n.inits, eligible)
			n.pruneE2s()
		}
	}
}

// spoiled reports whether a buffered E2 lies in the open interval
// (T(init), T(term)) of Definition 5.5.
func (n *notNode) spoiled(init, term *event.Occurrence) bool {
	for _, e2 := range n.e2s {
		if event.StampLess(init, e2) && event.StampLess(e2, term) {
			return true
		}
	}
	return false
}

// pruneE2s drops (and releases) E2 occurrences no live initiator
// precedes, nil-ing the vacated tail.
func (n *notNode) pruneE2s() {
	w := 0
outer:
	for _, e2 := range n.e2s {
		for _, init := range n.inits {
			if event.StampLess(init, e2) {
				n.e2s[w] = e2
				w++
				continue outer
			}
		}
		e2.Release()
	}
	for i := w; i < len(n.e2s); i++ {
		n.e2s[i] = nil
	}
	n.e2s = n.e2s[:w]
}

// apWindow is one open interval of an aperiodic or periodic operator.
type apWindow struct {
	init *event.Occurrence
	acc  []*event.Occurrence // accumulated E2s (A*) or ticks (P*)
}

// release drops the window's buffer references when it is discarded or
// after its closing emission.
func (w *apWindow) release() {
	w.init.Release()
	w.init = nil
	w.acc = releaseAll(w.acc)
}

// aperiodicNode implements A(E1, E2, E3) and, with cumulative=true,
// A*(E1, E2, E3) (Section 5.3).  Children in AST order: 0 = E1
// (initiator), 1 = E2 (the monitored event), 2 = E3 (terminator).
//
// A fires once per E2 occurrence falling after an open initiator; E3
// closes the windows it follows (closing is intrinsic to the operator, not
// a context policy, so it happens in every context).  A* accumulates E2
// occurrences per window and fires once when E3 closes the window,
// carrying the E2s strictly inside the open interval.
type aperiodicNode struct {
	det        *Detector
	name       string
	ctx        Context
	cumulative bool
	out        emitFunc

	windows []*apWindow
	// eligible and closed are scratch for the per-occurrence window
	// scans; window pointers never escape through them (emissions copy
	// what they need into fresh constituent slices).
	eligible []*apWindow
	closed   []*apWindow
}

//sentinel:hotpath
func (n *aperiodicNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 0: // E1 opens a window
		if n.ctx == Recent {
			for i, w := range n.windows {
				w.release()
				n.windows[i] = nil
			}
			n.windows = n.windows[:0]
		}
		n.windows = append(n.windows, &apWindow{init: retain(o)})
	case 1: // E2
		eligible := n.eligible[:0]
		for _, w := range n.windows {
			if event.StampLess(w.init, o) {
				eligible = append(eligible, w)
			}
		}
		n.eligible = eligible[:0]
		if len(eligible) == 0 {
			return
		}
		if n.cumulative {
			switch n.ctx {
			case Chronicle:
				eligible[0].acc = append(eligible[0].acc, retain(o))
			default:
				for _, w := range eligible {
					w.acc = append(w.acc, retain(o))
				}
			}
			return
		}
		switch n.ctx {
		case Chronicle:
			n.det.emit(n.out, n.name, eligible[0].init, o)
		case Recent:
			n.det.emit(n.out, n.name, eligible[len(eligible)-1].init, o)
		default: // Unrestricted, Continuous, Cumulative: every open window
			for _, w := range eligible {
				n.det.emit(n.out, n.name, w.init, o)
			}
		}
	case 2: // E3 closes windows
		closed := n.closed[:0]
		live := n.windows[:0]
		for _, w := range n.windows {
			if event.StampLess(w.init, o) {
				closed = append(closed, w)
			} else {
				live = append(live, w)
			}
		}
		for i := len(live); i < len(n.windows); i++ {
			n.windows[i] = nil
		}
		n.windows = live
		n.closed = closed[:0]
		if !n.cumulative || len(closed) == 0 {
			// A closed window emits nothing here in the non-cumulative
			// operator; its buffered references end with it.
			for _, w := range closed {
				w.release()
			}
			return
		}
		emitWindow := func(ws []*apWindow) {
			// Initiators first, then the union of accumulated E2s
			// strictly inside the open interval (an E2 shared by several
			// merged windows appears once), then the terminator.
			var constituents []*event.Occurrence
			for _, w := range ws {
				constituents = append(constituents, w.init)
			}
			//lint:allow hotalloc — dedup map allocated once per closing terminator, not per monitored E2; terminators are the rare event of the A* operator
			seen := make(map[*event.Occurrence]bool)
			for _, w := range ws {
				for _, e2 := range w.acc {
					if !seen[e2] && event.StampLess(e2, o) {
						seen[e2] = true
						constituents = append(constituents, e2)
					}
				}
			}
			constituents = append(constituents, o)
			n.det.emit(n.out, n.name, constituents...)
		}
		switch n.ctx {
		case Chronicle:
			emitWindow(closed[:1])
			// Later windows closed by the same E3 are discarded in
			// Chronicle: each terminator accounts for one initiator.
		case Cumulative:
			emitWindow(closed)
		default: // Unrestricted, Recent, Continuous: one composite per window
			// Subslicing closed hands emitWindow a one-window view without
			// the transient one-element slice a literal would allocate.
			for i := range closed {
				emitWindow(closed[i : i+1])
			}
		}
		for _, w := range closed {
			w.release()
		}
	}
}

// periodicNode implements P(E1, [t], E3) and, with cumulative=true,
// P*(E1, [t], E3): a temporal event that fires every period microticks
// from the initiator until the terminator.  Children in AST order:
// 0 = E1, 1 = E3.  Ticks are temporal occurrences stamped by the
// detector's TimeSource at their due instant.
type periodicNode struct {
	det        *Detector
	name       string
	ctx        Context
	cumulative bool
	period     clock.Microticks
	out        emitFunc
	sched      scheduler
	// tickType is the precomputed name+".tick" event type: ticks fire on
	// every period of every open window, so the concatenation is hoisted
	// to construction instead of rebuilt per tick.
	tickType string

	windows []*pWindow
}

type pWindow struct {
	init   *event.Occurrence
	acc    []*event.Occurrence
	ticks  int64
	closed bool
}

// close marks the window dead for its pending timer and drops its buffer
// references.
func (w *pWindow) close() {
	w.closed = true
	w.init.Release()
	w.init = nil
	w.acc = releaseAll(w.acc)
}

func (n *periodicNode) bindScheduler(s scheduler) error {
	if s == nil {
		return fmt.Errorf("detector: %s needs a TimeSource for periodic timers", n.name)
	}
	n.sched = s
	return nil
}

//sentinel:hotpath
func (n *periodicNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 0: // E1 opens a periodic window
		if n.ctx == Recent {
			for i, w := range n.windows {
				w.close()
				n.windows[i] = nil
			}
			n.windows = n.windows[:0]
		}
		w := &pWindow{init: retain(o)}
		n.windows = append(n.windows, w)
		n.scheduleTick(w, n.sched.now()+n.period)
	case 1: // E3 closes windows it follows
		live := n.windows[:0]
		for _, w := range n.windows {
			if event.StampLess(w.init, o) {
				if n.cumulative {
					var constituents []*event.Occurrence
					constituents = append(constituents, w.init)
					constituents = append(constituents, w.acc...)
					constituents = append(constituents, o)
					n.det.emit(n.out, n.name, constituents...)
				}
				w.close()
			} else {
				live = append(live, w)
			}
		}
		for i := len(live); i < len(n.windows); i++ {
			n.windows[i] = nil
		}
		n.windows = live
	}
}

func (n *periodicNode) scheduleTick(w *pWindow, due clock.Microticks) {
	n.sched.schedule(due, func(at clock.Microticks) {
		if w.closed {
			return
		}
		w.ticks++
		//lint:allow hotalloc — the count parameter map is retained by the emitted tick occurrence; the allocation is the product, not garbage
		params := event.Params{"count": w.ticks}
		// Ticks are plain heap occurrences (not pooled): their lifetime is
		// the emitted composite's, and temporal firings are orders of
		// magnitude rarer than the event path the pool serves.
		tick := event.NewPrimitive(n.tickType, event.Temporal, n.sched.stampAt(at), params)
		if n.cumulative {
			w.acc = append(w.acc, tick)
		} else {
			n.det.emit(n.out, n.name, w.init, tick)
		}
		n.scheduleTick(w, at+n.period)
	})
}

// plusNode implements PLUS(E, t): the composite occurs t microticks after
// each occurrence of E.  The emitted occurrence composes the triggering
// occurrence with a temporal occurrence stamped at the due instant, so the
// composite timestamp reflects the fire time via the Max operator.
type plusNode struct {
	det   *Detector
	name  string
	delta clock.Microticks
	out   emitFunc
	sched scheduler
	// timerType is the precomputed name+".timer" event type, hoisted to
	// construction so each PLUS firing builds no string.
	timerType string
}

func (n *plusNode) bindScheduler(s scheduler) error {
	if s == nil {
		return fmt.Errorf("detector: %s needs a TimeSource for PLUS timers", n.name)
	}
	n.sched = s
	return nil
}

//sentinel:hotpath
func (n *plusNode) onChild(_ int, o *event.Occurrence) {
	// The timer closure stores o past onChild's return, so it holds a
	// buffer reference until it fires (a timer that never fires leaks the
	// reference — the ledger's safe direction).
	o.Retain()
	n.sched.schedule(n.sched.now()+n.delta, func(at clock.Microticks) {
		tick := event.NewPrimitive(n.timerType, event.Temporal, n.sched.stampAt(at), nil)
		n.det.emit(n.out, n.name, o, tick)
		o.Release()
	})
}

// removeIndices removes the (ascending) indices from s in a single
// compaction pass, preserving order, releasing each removed occurrence's
// buffer reference.  The prefix before the first removed index is left
// untouched, and the vacated tail is nil-ed so consumed occurrences don't
// stay reachable through the buffer's capacity.
func removeIndices(s []*event.Occurrence, idx []int) []*event.Occurrence {
	if len(idx) == 0 {
		return s
	}
	w := idx[0]
	s[w].Release()
	k := 1
	for i := w + 1; i < len(s); i++ {
		if k < len(idx) && idx[k] == i {
			k++
			s[i].Release()
			continue
		}
		s[w] = s[i]
		w++
	}
	for i := w; i < len(s); i++ {
		s[i] = nil
	}
	return s[:w]
}
