// Package ddetect implements distributed composite event detection
// (Section 5 of the paper): sites raise primitive events stamped by their
// own synchronized-within-Π clocks, forward them over the simulated
// network to the sites hosting composite event definitions, and each
// hosting site's detector evaluates the Snoop operators over the
// composite timestamp algebra of internal/core.
//
// The operator nodes of internal/detector require events in an order that
// linearly extends the composite happen-before order.  Under network
// jitter and clock skew, arrival order is no such thing, so each site runs
// a reorderer with two stages:
//
//  1. FIFO restore: the bus stamps per-link sequence numbers; messages are
//     buffered until their predecessors arrive, recovering each source's
//     emission order (which is local-clock order, hence happen-before
//     order within the source).
//  2. Watermark release: every site periodically heartbeats its current
//     global time.  Because local clocks are monotone, a source whose
//     frontier (last in-order global time) is w can never again emit an
//     event with global time < w.  A buffered event with maximal global
//     component g is released once min over all frontiers ≥ g − 1: any
//     future event f then has g_f ≥ g − 1, which by Definition 4.7 rules
//     out f happening before the released event.  Released events are
//     published in (global, site, local) order, a linear extension of <
//     for the primitive (singleton-stamp) occurrences exchanged between
//     sites.
//
// For hierarchically forwarded *composite* occurrences the (global, site,
// local) key is still used with the stamp's maximal global component;
// under extreme clock skew two multi-component stamps can in principle be
// released in an order that swaps a happen-before pair (never producing a
// false detection — only possibly missing one).  The default deployment —
// each definition fully evaluated at one hosting site over primitive
// streams — is exact.
//
// The same frontiers bound what is still to come.  After a release, no
// event the reorderer will ever release has a maximal global component
// below the minimum frontier, nor below the frontier of a decommissioned
// source whose stream may still be arriving.  That release horizon feeds
// each site's detector, which drops the operator state it proves dead
// (DESIGN.md §2k).  A forwarded composite breaks the premise: it leaves
// its host when it completes, after heartbeats that already advanced the
// host's frontier past the composite's own stamp.  Sites receiving
// forwarded composites therefore get no horizon.
//
// All per-source state is indexed by dense roster index (core.Site), not
// by SiteID string: a full-membership reorderer (an event sink's) holds
// one sourceState slot per roster member, addressed directly, and a
// self-only reorderer (every other site's) holds exactly one.  Because
// roster index order equals canonical SiteID order, the dense release key
// orders identically to the old string key.
package ddetect

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/network"
)

// envKind distinguishes bus payloads.
type envKind int

const (
	envEvent envKind = iota
	envHeartbeat
)

// envelope is the application payload carried by network messages and the
// site-local self stream.
type envelope struct {
	Kind envKind
	// Occ is the occurrence for envEvent.
	Occ *event.Occurrence
	// Global is the watermark for envHeartbeat.
	Global int64
	// RaisedAt is the reference time the occurrence was raised (for
	// latency accounting) or the heartbeat's nominal instant (the
	// reference the wire codec delta-encodes the frontier against).
	RaisedAt clock.Microticks
}

// sourceState tracks one source's stream at a receiving site.  One link
// sequence number covers one bus message, which since the transport
// started coalescing may carry several envelopes — pending therefore
// buffers envelope runs, not single envelopes.  States live by value in
// the reorderer's dense slice; the pending map is allocated lazily, on a
// source's first out-of-order arrival, so a site with n in-order sources
// carries n small structs and no maps.
type sourceState struct {
	nextSeq  uint64
	pending  map[uint64][]envelope
	frontier int64
	// excluded marks a decommissioned source: its frontier no longer
	// gates the watermark (see System.Decommission).
	excluded bool
}

// reorderer restores a linear extension of happen-before from out-of-order
// arrivals.  Not safe for concurrent use; owned by its site.
type reorderer struct {
	roster *core.Roster
	// self is the owning site's index for a self-only reorderer (its one
	// sourceState is sources[0]); core.NoSite marks full membership, where
	// sources is roster-length and addressed by index directly.
	self    core.Site
	sources []sourceState
	ready   readyQueue
	arrival uint64

	// buffered counts FIFO-pending envelopes for quiescence checks.
	buffered int
	// gating counts non-excluded sources, so exhaustion (everything
	// decommissioned) is O(1) to detect.
	gating int
	// minF caches minFrontier; minDirty forces a recompute after a
	// frontier advance or an exclusion.  The cache is what keeps the
	// release scan from walking the full frontier vector on every tick —
	// a site whose frontiers did not move pays one flag check.
	minF     int64
	minDirty bool
	// stale records that something release-relevant changed (an event
	// ingested, a frontier advanced, a source excluded) since the last
	// release call; a clean reorderer's release is an immediate no-op.
	stale bool
	// draining lists excluded sources whose stream may not be complete
	// yet: messages they sent before the exclusion can still be in
	// flight or parked behind a FIFO gap.  Each bounds the release
	// horizon by its frontier until settleDrain retires it.
	draining []core.Site
}

// newReorderer builds a full-membership reorderer: one source slot per
// roster member, for the event sinks that can hear from everyone.
func newReorderer(roster *core.Roster) *reorderer {
	r := &reorderer{
		roster:   roster,
		self:     core.NoSite,
		sources:  make([]sourceState, roster.Len()),
		gating:   roster.Len(),
		minDirty: true,
	}
	for i := range r.sources {
		r.sources[i] = sourceState{nextSeq: 1, frontier: math.MinInt64}
	}
	return r
}

// newSelfReorderer builds a self-only reorderer for a site outside every
// needers list: it hears nobody but itself, so one source slot suffices
// and its watermark gates only on its own clock.
func newSelfReorderer(roster *core.Roster, self core.Site) *reorderer {
	return &reorderer{
		roster:   roster,
		self:     self,
		sources:  []sourceState{{nextSeq: 1, frontier: math.MinInt64}},
		gating:   1,
		minDirty: true,
	}
}

// slot maps a source's roster index to its position in sources, or -1 for
// a site this reorderer does not listen to.
func (r *reorderer) slot(from core.Site) int {
	if r.self != core.NoSite {
		if from == r.self {
			return 0
		}
		return -1
	}
	if from < 0 || int(from) >= len(r.sources) {
		return -1
	}
	return int(from)
}

// siteID renders a source index for error messages.
func (r *reorderer) siteID(from core.Site) core.SiteID {
	if r.roster != nil && from >= 0 && int(from) < r.roster.Len() {
		return r.roster.ID(from)
	}
	//lint:allow hotalloc — fallback rendering for error messages only; every accepted message resolves through the roster above
	return core.SiteID(fmt.Sprintf("#%d", from))
}

// source resolves and screens one arrival: the sender must be known, and
// its sequence number neither already consumed nor already buffered.
func (r *reorderer) source(from core.Site, seq uint64) (*sourceState, error) {
	i := r.slot(from)
	if i < 0 {
		//lint:allow hotalloc — error path: a protocol violation (unknown source) terminates the run, so its formatting cost is irrelevant
		return nil, fmt.Errorf("ddetect: message from unknown source %q", r.siteID(from))
	}
	st := &r.sources[i]
	if seq < st.nextSeq {
		//lint:allow hotalloc — error path: duplicate sequence numbers are protocol violations, never the steady state
		return nil, fmt.Errorf("ddetect: duplicate seq %d from %q (next %d)", seq, r.siteID(from), st.nextSeq)
	}
	if _, dup := st.pending[seq]; dup {
		//lint:allow hotalloc — error path: duplicate buffered sequences are protocol violations, never the steady state
		return nil, fmt.Errorf("ddetect: duplicate buffered seq %d from %q", seq, r.siteID(from))
	}
	return st, nil
}

// accept ingests a single-envelope message from a source with its link
// sequence number, draining any in-order run it completes.  The common
// in-order case bypasses the pending map entirely.
//
//sentinel:hotpath
func (r *reorderer) accept(from core.Site, seq uint64, env envelope) error {
	st, err := r.source(from, seq)
	if err != nil {
		return err
	}
	if seq == st.nextSeq {
		st.nextSeq++
		r.ingest(st, env)
		r.drain(st)
		return nil
	}
	if st.pending == nil {
		//lint:allow hotalloc — lazy one-time map per source, only materialized the first time that source delivers out of order
		st.pending = make(map[uint64][]envelope)
	}
	//lint:allow hotalloc — the pending run is retained until the sequence gap fills; the buffer is the point of the reorderer
	st.pending[seq] = []envelope{env}
	r.buffered++
	return nil
}

// acceptBatch ingests one coalesced message: a run of envelopes sharing a
// single link sequence number, in their sender's emission order.  The
// in-order case ingests straight from the caller's slice, which the
// caller may recycle as soon as acceptBatch returns; only an out-of-order
// arrival copies the run into an owned buffer.
//
//sentinel:hotpath
func (r *reorderer) acceptBatch(from core.Site, seq uint64, envs []envelope) error {
	st, err := r.source(from, seq)
	if err != nil {
		return err
	}
	if seq == st.nextSeq {
		st.nextSeq++
		for _, env := range envs {
			r.ingest(st, env)
		}
		r.drain(st)
		return nil
	}
	if st.pending == nil {
		//lint:allow hotalloc — lazy one-time map per source, only materialized the first time that source delivers out of order
		st.pending = make(map[uint64][]envelope)
	}
	st.pending[seq] = append([]envelope(nil), envs...)
	r.buffered += len(envs)
	return nil
}

// drain consumes the in-order run now sitting in the pending map.
func (r *reorderer) drain(st *sourceState) {
	for len(st.pending) > 0 {
		next, ok := st.pending[st.nextSeq]
		if !ok {
			return
		}
		delete(st.pending, st.nextSeq)
		st.nextSeq++
		r.buffered -= len(next)
		for _, env := range next {
			r.ingest(st, env)
		}
	}
}

// ingest processes one in-order envelope: events join the ready queue and
// advance the frontier; heartbeats only advance the frontier.
func (r *reorderer) ingest(st *sourceState, env envelope) {
	switch env.Kind {
	case envEvent:
		g := env.Occ.Stamp.MaxGlobal()
		if g > st.frontier {
			st.frontier = g
			r.minDirty = true
		}
		r.arrival++
		r.ready.push(readyItem{env: env, key: r.releaseKey(env.Occ, r.arrival)})
		r.stale = true
	case envHeartbeat:
		if env.Global > st.frontier {
			st.frontier = env.Global
			r.minDirty = true
			r.stale = true
		}
	}
}

// setFrontier advances a source's frontier directly (used for the site's
// own clock, which needs no heartbeat message).
func (r *reorderer) setFrontier(from core.Site, g int64) {
	if i := r.slot(from); i >= 0 && g > r.sources[i].frontier {
		r.sources[i].frontier = g
		r.minDirty = true
		r.stale = true
	}
}

// minFrontier returns the minimum frontier over the sources still gating
// the watermark, recomputing the cache only after a frontier actually
// moved.  With every source excluded there is nothing left to wait for
// and buffered events release unconditionally.
func (r *reorderer) minFrontier() int64 {
	if !r.minDirty {
		return r.minF
	}
	r.minDirty = false
	if r.gating == 0 {
		r.minF = math.MaxInt64
		return r.minF
	}
	min := int64(math.MaxInt64)
	for i := range r.sources {
		st := &r.sources[i]
		if st.excluded {
			continue
		}
		if st.frontier < min {
			min = st.frontier
		}
	}
	r.minF = min
	return min
}

// exclude removes a source from watermark gating.  Its already-buffered
// FIFO stream remains valid; only its (now silent) clock stops holding
// everyone else back.  The source keeps bounding the release horizon
// until its stream is known complete (see settleDrain).
func (r *reorderer) exclude(from core.Site) {
	if i := r.slot(from); i >= 0 && !r.sources[i].excluded {
		r.sources[i].excluded = true
		r.gating--
		r.minDirty = true
		r.stale = true
		r.draining = append(r.draining, from)
	}
}

// settleDrain retires the draining sources whose stream to owner is
// complete: every sequence number the bus ever stamped on the link has
// been consumed in order (the owner's own stream never rides the bus).
// Such a source can deliver nothing more — it was excluded because it
// stopped.  It returns the number retired.
func (r *reorderer) settleDrain(owner core.Site, bus *network.Bus) int {
	live := r.draining[:0]
	for _, from := range r.draining {
		if from != owner && bus.LinkSeq(from, owner) != r.sources[r.slot(from)].nextSeq-1 {
			live = append(live, from)
		}
	}
	n := len(r.draining) - len(live)
	r.draining = live
	return n
}

// horizon returns the release horizon: a lower bound on the maximal
// global component of every event this reorderer will release from now
// on, valid right after a release call.  Every gating source's future
// events carry a global time at or above its frontier (clocks are
// monotone and the frontier covers its in-order prefix), the events
// still queued sit above minFrontier + slack ≥ minFrontier, and a
// draining source can still deliver from its own frontier up.  ok is
// false while some bounding frontier is unknown (MinInt64) or nothing
// gates any more.
func (r *reorderer) horizon() (h int64, ok bool) {
	if r.gating == 0 {
		return 0, false
	}
	h = r.minFrontier()
	for _, from := range r.draining {
		h = min(h, r.sources[r.slot(from)].frontier)
	}
	return h, h != math.MinInt64
}

// ReleaseMode selects how aggressively the watermark releases events.
type ReleaseMode int

const (
	// ReleaseTotalOrder (the default) releases an event with maximal
	// global component g only once every frontier is at least g+1, so no
	// event with global ≤ g can still arrive.  The release sequence is
	// then globally sorted by (global, site, local) — a deterministic
	// total order identical to a centralized detector fed the same
	// stamps — at the cost of up to two extra granules of latency.
	ReleaseTotalOrder ReleaseMode = iota
	// ReleaseExtension releases as soon as no *happen-before* violation
	// is possible (g ≤ min frontier + 1).  Lowest latency; the sequence
	// is only a linear extension of <, so concurrent events may be
	// interleaved differently than at a centralized oracle, which can
	// change which of several equally valid constituents a context
	// (Recent/Chronicle/…) picks.
	ReleaseExtension
)

func (m ReleaseMode) String() string {
	switch m {
	case ReleaseTotalOrder:
		return "total-order"
	case ReleaseExtension:
		return "extension"
	default:
		return fmt.Sprintf("ReleaseMode(%d)", int(m))
	}
}

// slack returns the release threshold offset relative to the minimum
// frontier: release while top.global ≤ minFrontier + slack.
func (m ReleaseMode) slack() int64 {
	if m == ReleaseExtension {
		return 1
	}
	return -1
}

// release pops every stable event — maximal global component at most
// minFrontier + slack(mode) — in (global, site, local, arrival) order and
// hands it to fn.  It returns the number released.
//
// A reorderer nothing touched since its last release returns immediately:
// no event arrived and no frontier moved, so the stable set cannot have
// grown.  This is what shards the crank's release scan — of thousands of
// sites, only the ones with fresh arrivals or watermark movement do any
// work, and only they consult the frontier vector.
//
//sentinel:hotpath
func (r *reorderer) release(mode ReleaseMode, fn func(envelope)) int {
	if !r.stale || len(r.ready) == 0 {
		return 0
	}
	r.stale = false
	minF := r.minFrontier()
	if minF == math.MinInt64 {
		return 0
	}
	n := 0
	for len(r.ready) > 0 && r.ready[0].key.global <= minF+mode.slack() {
		fn(r.ready.pop().env)
		n++
	}
	return n
}

// releaseInto is release with the callback replaced by a caller-owned
// buffer: stable envelopes are appended to dst in release order and the
// extended slice returned.  It exists for the release stage's parallel
// advance phase — each worker pops its own site's heap into the site's
// released buffer, and the crank accounts the results in site order
// afterwards, so heap maintenance (the sift-heavy part) runs fanned out
// while every observable side effect stays sequential.
//
//sentinel:hotpath
func (r *reorderer) releaseInto(mode ReleaseMode, dst []envelope) []envelope {
	if !r.stale || len(r.ready) == 0 {
		return dst
	}
	r.stale = false
	minF := r.minFrontier()
	if minF == math.MinInt64 {
		return dst
	}
	for len(r.ready) > 0 && r.ready[0].key.global <= minF+mode.slack() {
		dst = append(dst, r.ready.pop().env)
	}
	return dst
}

// pendingEvents reports buffered FIFO gaps plus unreleased ready events,
// for quiescence checks.
func (r *reorderer) pendingEvents() int { return r.buffered + len(r.ready) }

// key orders ready events: ascending maximal global, then site, then the
// local tick of the max-global component, then arrival.  For singleton
// stamps this is a linear extension of the composite happen-before order
// (see the package comment).  The site is a dense roster index: interning
// preserves SiteID order, so the integer compare in less orders exactly
// as the string compare it replaced.
type key struct {
	global  int64
	site    core.Site
	local   int64
	arrival uint64
}

// releaseKey interns the occurrence's max-global stamp component into the
// dense ordering key.  An occurrence carrying an interned stamp (pooled
// raise, roster-aware decode) yields its component pre-interned — no
// roster map lookup; the two paths agree because interning preserves
// SiteID order and the component selection rule is identical
// (TestRSetStampMaxGlobalComponent pins it against the string form).
//
//sentinel:hotpath
func (r *reorderer) releaseKey(o *event.Occurrence, arrival uint64) key {
	if len(o.Interned) > 0 {
		best := o.Interned.MaxGlobalComponent()
		return key{global: best.Global, site: best.Site, local: best.Local, arrival: arrival}
	}
	best := o.Stamp.MaxGlobalComponent()
	return key{global: best.Global, site: r.roster.MustSite(best.Site), local: best.Local, arrival: arrival}
}

func (k key) less(u key) bool {
	if k.global != u.global {
		return k.global < u.global
	}
	if k.site != u.site {
		return k.site < u.site
	}
	if k.local != u.local {
		return k.local < u.local
	}
	return k.arrival < u.arrival
}

type readyItem struct {
	env envelope
	key key
}

// readyQueue is a value-based binary min-heap on key.  It deliberately
// avoids container/heap: items are stored by value in one backing array
// (no per-item allocation) and push/pop sift directly (no interface
// boxing on the hot per-event path).
type readyQueue []readyItem

func (q *readyQueue) push(it readyItem) {
	*q = append(*q, it)
	h := *q
	// Sift up.
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].key.less(h[parent].key) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *readyQueue) pop() readyItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = readyItem{} // release the envelope's occurrence pointer
	h = h[:n]
	*q = h
	// Sift down.
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].key.less(h[l].key) {
			least = r
		}
		if !h[least].key.less(h[i].key) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
