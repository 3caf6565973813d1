// Package network simulates the message-passing substrate of a distributed
// event-detection system: point-to-point links with configurable latency,
// jitter and loss-with-retransmission, driven by the same simulated clock
// as everything else (internal/clock), so every adversarial delivery
// schedule is deterministic and reproducible.
//
// The bus is reliable but unordered: a message is never lost for good
// (loss is modelled as retransmission delay, the abstraction a CEP
// transport needs), but jitter freely reorders messages on a link.  The
// distributed detector (internal/ddetect) restores per-link FIFO order
// from the sequence numbers the bus stamps and uses watermarks for
// cross-site ordering, exactly the problem Section 5 of the paper's
// timestamp algebra exists to solve.
//
// A message may carry more than one application envelope: SendBatch
// models one physical frame coalescing a tick's traffic for a link (the
// transport batching of internal/ddetect), and the Stats distinguish
// messages sent from envelopes carried so the coalescing ratio is
// measurable.  SendUnbatched is the differential twin — the same traffic
// as envelope-per-message frames under the same delay schedule — used to
// prove batching is a pure transport optimization.
//
// In-flight messages wait in a delivery queue over a slab of Message
// values, written once on send and copied out once on delivery.  Every
// delivery falls in [BaseLatency, BaseLatency+Jitter) after its send plus
// whole RetransmitDelays, so the queue is a calendar: a power-of-two ring
// of per-instant FIFO buckets spanning the next power of two at or above
// BaseLatency+Jitter+RetransmitDelay+1 instants (capped at maxSpan) takes
// the bulk of the traffic in O(1) per push and pop, and a min-heap of
// (DeliverAt, send order, slot) keys takes the rest — repeated
// retransmits beyond the span and sends outside the window while the ring
// holds messages; an empty ring moves its window to the next send.
// Delivery order is the (DeliverAt, send order) total order either way;
// deliveryQueue's doc comment gives the argument.
package network

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
)

// Message is one transmission on the bus.
type Message struct {
	From, To core.SiteID
	// FromSite and ToSite are the dense roster indexes of From and To when
	// the message was sent through one of the roster-native Site methods;
	// core.NoSite otherwise.  Receivers on the hot path dispatch on these
	// instead of re-resolving the string IDs.
	FromSite, ToSite core.Site
	// Seq is the per-(From,To)-link FIFO sequence number, starting at 1.
	Seq uint64
	// SentAt and DeliverAt are reference times.
	SentAt, DeliverAt clock.Microticks
	// Attempts is 1 plus the number of simulated losses.
	Attempts int
	// Payload is the application message (an event occurrence, a
	// heartbeat, or a coalesced multi-envelope batch in ddetect).
	Payload any
}

// Config describes link behaviour.  The zero value is a perfect network:
// zero latency, no jitter, no loss.
type Config struct {
	// BaseLatency is the fixed one-way delay.
	BaseLatency clock.Microticks
	// Jitter adds a uniform random delay in [0, Jitter).  Jitter larger
	// than the inter-message gap reorders messages on a link.
	Jitter clock.Microticks
	// DropRate is the per-transmission loss probability in [0, 1); each
	// loss costs RetransmitDelay before the next attempt.
	DropRate float64
	// RetransmitDelay is the delay added per lost transmission.
	RetransmitDelay clock.Microticks
	// Seed makes the jitter/loss schedule reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BaseLatency < 0 || c.Jitter < 0 || c.RetransmitDelay < 0 {
		return fmt.Errorf("network: negative delay in config %+v", c)
	}
	if c.DropRate < 0 || c.DropRate >= 1 {
		return fmt.Errorf("network: DropRate %v outside [0, 1)", c.DropRate)
	}
	if c.DropRate > 0 && c.RetransmitDelay == 0 {
		return fmt.Errorf("network: DropRate without RetransmitDelay would be a free drop")
	}
	return nil
}

// Stats counts bus activity.  Sent counts bus messages; Envelopes counts
// the application envelopes they carried (equal when nothing is batched),
// so Envelopes/Sent is the coalescing ratio of the transport layer.
type Stats struct {
	Sent          uint64
	Delivered     uint64
	Retransmitted uint64
	MaxInFlight   int
	// Envelopes is the number of application envelopes carried across
	// all messages (SendBatch adds its whole batch to one message).
	Envelopes uint64
	// Batches is the number of messages that coalesced more than one
	// envelope.
	Batches uint64
	// PayloadBytes accumulates serialized payload sizes where the sender
	// reported them (zero for in-memory payloads).
	PayloadBytes uint64
}

// LinkStat is the per-(from,to)-link activity breakdown.
type LinkStat struct {
	From, To  core.SiteID
	Sent      uint64
	Envelopes uint64
	Batches   uint64
	Bytes     uint64
}

// Bus is the deterministic simulated network.  It is safe for concurrent
// use, though the simulation driver typically owns it from one goroutine.
type Bus struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	queue   deliveryQueue
	pushSeq uint64
	links   map[linkKey]*linkState
	// byFrom is the dense (from,to) link index, populated once SetRoster
	// attaches a roster: byFrom[from] holds the destinations this site has
	// ever sent to, resolved by a short linear scan (a site's out-degree is
	// the number of sinks it feeds — small by construction, see ddetect's
	// seal).  It indexes the same *linkState values as the string map, which
	// stays authoritative for rosterless sends and LinkStats enumeration.
	byFrom []fromLinks
	roster *core.Roster
	stats  Stats
}

type linkKey struct {
	from, to core.SiteID
}

// fromLinks is one site's outbound links: parallel destination-index and
// state slices, appended on first use and scanned linearly.
type fromLinks struct {
	tos []core.Site
	ls  []*linkState
}

// linkState carries the per-link FIFO counter and activity counters in
// one map entry, so the Send hot path resolves a link with one lookup.
type linkState struct {
	key       linkKey
	seq       uint64
	sent      uint64
	envelopes uint64
	batches   uint64
	bytes     uint64
}

// NewBus creates a bus; it panics on an invalid configuration (a
// configuration is code, not input).
func NewBus(cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		queue: newDeliveryQueue(calendarSpan(cfg)),
		links: make(map[linkKey]*linkState),
	}
}

// SetRoster attaches the sealed site roster, enabling the dense link
// index and the Site send methods.  Call it before traffic flows (ddetect
// does so at seal); links opened earlier through the string path are
// re-homed into the dense index.
func (b *Bus) SetRoster(r *core.Roster) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.roster = r
	b.byFrom = make([]fromLinks, r.Len())
	for k, ls := range b.links { //lint:allow mapiter — one-time re-home at seal; per-link state is independent, so index order is immaterial
		f, t := r.Site(k.from), r.Site(k.to)
		if f != core.NoSite && t != core.NoSite {
			b.byFrom[f].tos = append(b.byFrom[f].tos, t)
			b.byFrom[f].ls = append(b.byFrom[f].ls, ls)
		}
	}
}

// link returns (creating on first use) the state for a link, keeping the
// dense index in sync when a roster is attached.
func (b *Bus) link(from, to core.SiteID) *linkState {
	k := linkKey{from: from, to: to}
	ls := b.links[k]
	if ls == nil {
		ls = &linkState{key: k}
		b.links[k] = ls
		if b.roster != nil {
			if f, t := b.roster.Site(from), b.roster.Site(to); f != core.NoSite && t != core.NoSite {
				b.byFrom[f].tos = append(b.byFrom[f].tos, t)
				b.byFrom[f].ls = append(b.byFrom[f].ls, ls)
			}
		}
	}
	return ls
}

// linkSite resolves a link by dense indexes: a short scan of the sender's
// destination list, falling through to creation on first use.  Requires a
// roster (the Site send methods are unreachable without one).
func (b *Bus) linkSite(from, to core.Site) *linkState {
	fl := &b.byFrom[from]
	for i, t := range fl.tos {
		if t == to {
			return fl.ls[i]
		}
	}
	ls := &linkState{key: linkKey{from: b.roster.ID(from), to: b.roster.ID(to)}}
	fl.tos = append(fl.tos, to)
	fl.ls = append(fl.ls, ls)
	b.links[ls.key] = ls
	return ls
}

// draw rolls one latency/jitter/loss schedule: the delay until delivery
// and the number of transmission attempts.  Caller holds b.mu.
func (b *Bus) draw() (delay clock.Microticks, attempts int) {
	delay = b.cfg.BaseLatency
	if b.cfg.Jitter > 0 {
		delay += b.rng.Int63n(b.cfg.Jitter)
	}
	attempts = 1
	for b.cfg.DropRate > 0 && b.rng.Float64() < b.cfg.DropRate {
		delay += b.cfg.RetransmitDelay
		attempts++
	}
	return delay, attempts
}

// enqueue queues one message sent at now and due at deliverAt, maintains
// the send-side counters, and returns the message's zeroed slot for the
// caller to fill in place (valid until the next enqueue).  Caller holds
// b.mu.
func (b *Bus) enqueue(now, deliverAt clock.Microticks) *Message {
	b.pushSeq++
	m := b.queue.push(now, deliverAt, b.pushSeq)
	b.stats.Sent++
	if n := b.queue.len(); n > b.stats.MaxInFlight {
		b.stats.MaxInFlight = n
	}
	return m
}

// Send enqueues a single-envelope message at reference time now and
// returns it with its link sequence number and delivery time filled in.
//
//sentinel:hotpath
func (b *Bus) Send(now clock.Microticks, from, to core.SiteID, payload any) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.link(from, to)
	delay, attempts := b.draw()
	ls.seq++
	m := b.enqueue(now, now+delay)
	*m = Message{
		From:      from,
		To:        to,
		FromSite:  core.NoSite,
		ToSite:    core.NoSite,
		Seq:       ls.seq,
		SentAt:    now,
		DeliverAt: now + delay,
		Attempts:  attempts,
		Payload:   payload,
	}
	if b.roster != nil {
		m.FromSite, m.ToSite = b.roster.Site(from), b.roster.Site(to)
	}
	ls.sent++
	ls.envelopes++
	b.stats.Envelopes++
	if attempts > 1 {
		b.stats.Retransmitted += uint64(attempts - 1)
	}
	return *m
}

// SendBatch enqueues one message carrying envelopes coalesced application
// envelopes (the payload is their container — a slice or an encoded batch
// frame of bytes bytes; pass bytes 0 for in-memory payloads).  The batch
// consumes exactly one latency/jitter/loss draw: it models one physical
// frame on the link.
//
//sentinel:hotpath
func (b *Bus) SendBatch(now clock.Microticks, from, to core.SiteID, payload any, envelopes, bytes int) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	fromSite, toSite := core.NoSite, core.NoSite
	if b.roster != nil {
		fromSite, toSite = b.roster.Site(from), b.roster.Site(to)
	}
	return *b.sendBatchLocked(now, b.link(from, to), from, to, fromSite, toSite, payload, envelopes, bytes)
}

// SendBatchSite is SendBatch addressed by dense roster indexes — the form
// the transport coalescer uses once the topology is sealed.  Link
// resolution is a slice index plus a short scan; no string is hashed.
// Like SendUnbatchedSite it returns nothing: the coalescer needs no copy
// of the queued message, and returning the 88-byte value cost a block
// copy per bus message.
//
//sentinel:hotpath
func (b *Bus) SendBatchSite(now clock.Microticks, from, to core.Site, payload any, envelopes, bytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.linkSite(from, to)
	b.sendBatchLocked(now, ls, ls.key.from, ls.key.to, from, to, payload, envelopes, bytes)
}

// sendBatchLocked is the shared body of SendBatch/SendBatchSite; it
// returns the queued message's slot, valid until the next enqueue or
// drain.  Caller holds b.mu.
func (b *Bus) sendBatchLocked(now clock.Microticks, ls *linkState, from, to core.SiteID,
	fromSite, toSite core.Site, payload any, envelopes, bytes int) *Message {
	delay, attempts := b.draw()
	ls.seq++
	m := b.enqueue(now, now+delay)
	*m = Message{
		From:      from,
		To:        to,
		FromSite:  fromSite,
		ToSite:    toSite,
		Seq:       ls.seq,
		SentAt:    now,
		DeliverAt: now + delay,
		Attempts:  attempts,
		Payload:   payload,
	}
	ls.sent++
	ls.envelopes += uint64(envelopes)
	ls.bytes += uint64(bytes)
	b.stats.Envelopes += uint64(envelopes)
	b.stats.PayloadBytes += uint64(bytes)
	if envelopes > 1 {
		ls.batches++
		b.stats.Batches++
	}
	if attempts > 1 {
		b.stats.Retransmitted += uint64(attempts - 1)
	}
	return m
}

// SendUnbatched enqueues n consecutive messages on the (from,to) link —
// payloadAt(i) supplies the i-th payload — all sharing a single
// latency/jitter/loss draw, exactly the schedule SendBatch would give the
// same traffic as one coalesced frame.  It is the differential twin of
// SendBatch (ddetect's DisableBatching mode): per-envelope framing, same
// deterministic delivery order, so detection results can be compared
// byte for byte.  payloadAt is invoked with the bus lock held and must
// not call back into the Bus.
//
//sentinel:hotpath
func (b *Bus) SendUnbatched(now clock.Microticks, from, to core.SiteID, n int, payloadAt func(int) any) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	fromSite, toSite := core.NoSite, core.NoSite
	if b.roster != nil {
		fromSite, toSite = b.roster.Site(from), b.roster.Site(to)
	}
	b.sendUnbatchedLocked(b.link(from, to), now, from, to, fromSite, toSite, n, payloadAt)
}

// SendUnbatchedSite is SendUnbatched addressed by dense roster indexes.
//
//sentinel:hotpath
func (b *Bus) SendUnbatchedSite(now clock.Microticks, from, to core.Site, n int, payloadAt func(int) any) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.linkSite(from, to)
	b.sendUnbatchedLocked(ls, now, ls.key.from, ls.key.to, from, to, n, payloadAt)
}

// sendUnbatchedLocked is the shared body of SendUnbatched and its Site
// twin.  Caller holds b.mu.
func (b *Bus) sendUnbatchedLocked(ls *linkState, now clock.Microticks, from, to core.SiteID,
	fromSite, toSite core.Site, n int, payloadAt func(int) any) {
	delay, attempts := b.draw()
	for i := 0; i < n; i++ {
		ls.seq++
		payload := payloadAt(i)
		*b.enqueue(now, now+delay) = Message{
			From:      from,
			To:        to,
			FromSite:  fromSite,
			ToSite:    toSite,
			Seq:       ls.seq,
			SentAt:    now,
			DeliverAt: now + delay,
			Attempts:  attempts,
			Payload:   payload,
		}
	}
	ls.sent += uint64(n)
	ls.envelopes += uint64(n)
	b.stats.Envelopes += uint64(n)
	if attempts > 1 {
		b.stats.Retransmitted += uint64(attempts - 1)
	}
}

// DrainDue pops every message due at or before now, in deterministic
// (DeliverAt, send order) order, appending to buf (pass the previous
// tick's slice, resliced to zero length, to reuse its backing array).
// This is the batch form the transport stage drains the bus with: one
// lock acquisition per tick instead of a lock round trip per message, and
// once buf's capacity covers a tick's deliveries no allocation at all.
//
//sentinel:hotpath
func (b *Bus) DrainDue(now clock.Microticks, buf []Message) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(buf)
	buf = b.queue.drain(now, buf)
	b.stats.Delivered += uint64(len(buf) - n)
	return buf
}

// LinkSeq returns the last sequence number stamped on the (from, to) link
// — the number of messages ever sent on it — or 0 for a link that never
// carried traffic.  A receiver that has consumed every sequence number up
// to LinkSeq in order holds the sender's complete stream so far.
// Requires a roster, like the Site send methods.
func (b *Bus) LinkSeq(from, to core.Site) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	fl := &b.byFrom[from]
	for i, t := range fl.tos {
		if t == to {
			return fl.ls[i].seq
		}
	}
	return 0
}

// Pending returns the number of in-flight messages.
func (b *Bus) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queue.len()
}

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// LinkStats returns the per-link activity breakdown, sorted by (From, To)
// for deterministic reporting.
func (b *Bus) LinkStats() []LinkStat {
	b.mu.Lock()
	out := make([]LinkStat, 0, len(b.links))
	for _, ls := range b.links { //lint:allow mapiter — snapshot is sorted below; map order never escapes
		out = append(out, LinkStat{
			From: ls.key.from, To: ls.key.to,
			Sent: ls.sent, Envelopes: ls.envelopes, Batches: ls.batches, Bytes: ls.bytes,
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// maxSpan caps the calendar ring at 4096 buckets (32 KiB of head/tail
// pairs), whatever the configured delays; deliveries beyond the window
// wait in the far heap.
const maxSpan = 4096

// calendarSpan sizes the ring for cfg: the smallest power of two covering
// every delay a message loses at most once to — BaseLatency plus the
// largest jitter draw plus one RetransmitDelay — with the instant itself,
// capped by maxSpan.  A perfect network gets a one-bucket ring.
func calendarSpan(cfg Config) int {
	need := cfg.BaseLatency + cfg.Jitter + cfg.RetransmitDelay + 1
	span := 1
	for span < maxSpan && clock.Microticks(span) < need {
		span <<= 1
	}
	return span
}

// deliveryQueue is the bus's in-flight set: a calendar of per-instant
// buckets for the bounded-delay bulk of the traffic, and a binary min-heap
// for the rest, both over one slab of messages.
//
//   - The ring is a power-of-two array of buckets covering the instants
//     [base, base+span), bucket at&(span-1) for instant at.  Each bucket
//     is an intrusive FIFO list of slab slots, threaded through the
//     slot-parallel links; push appends at the tail in O(1).
//   - The far heap holds (DeliverAt, order, slot) keys for every delivery
//     outside the window when it was sent: retransmits beyond the span,
//     and, while the ring holds messages, sends whose instant lags base
//     or runs ahead of the window.  An empty ring constrains nothing, so
//     push first moves base to the send instant, whose window takes every
//     delay lost at most once.
//   - Free slots form a list through the same links, so the queue keeps
//     one slab entry per message of peak depth and allocates nothing once
//     the slab has grown to it.
//
// drain advances base over empty buckets only, never past now+1 (straight
// to now+1 when the ring is empty, saturating at math.MaxInt64), and pops
// by comparing the head of the bucket at base with the top of the far
// heap by the full (at, order) key.
//
// The pop sequence is the (DeliverAt, send order) total order.  Push
// files a message in the ring only inside the window and moves base only
// while the ring is empty, and drain never moves base past a non-empty
// bucket, so every ring entry lies in [base, base+span) and each bucket
// holds a single instant.  Within a bucket, entries were appended in
// increasing send order, so its head is its least key, and once drain
// has moved base onto a non-empty bucket that head is the ring's least
// key.  The far heap's top is its least key, and
// a tie on the instant between the tiers (a far retransmit and a later
// in-window send due at the same instant) is settled by send order,
// which is unique.  So each pop takes the least key in the queue, and
// which tier or slot holds a message never influences delivery order.
type deliveryQueue struct {
	slab  []Message
	links []slotLink
	// free is the first free slot, -1 when the slab is full.
	free int32

	ring   []bucket
	mask   clock.Microticks
	base   clock.Microticks
	inRing int

	far []queueKey
}

// slotLink is a slot's send order and its successor in its bucket list or
// in the free list (-1 ends either).
type slotLink struct {
	order uint64
	next  int32
}

// bucket is one instant's FIFO list of slots, -1 when empty.
type bucket struct{ head, tail int32 }

// queueKey is one far-heap entry: the (DeliverAt, order) sort key and the
// slab slot of its message.
type queueKey struct {
	at    clock.Microticks
	order uint64
	slot  int32
}

func (k queueKey) less(u queueKey) bool {
	if k.at != u.at {
		return k.at < u.at
	}
	return k.order < u.order
}

func newDeliveryQueue(span int) deliveryQueue {
	q := deliveryQueue{free: -1, ring: make([]bucket, span), mask: clock.Microticks(span - 1)}
	for i := range q.ring {
		q.ring[i] = bucket{head: -1, tail: -1}
	}
	return q
}

// len returns the number of queued messages.
func (q *deliveryQueue) len() int { return q.inRing + len(q.far) }

// push takes a free slot (or a new one) for a message sent at sent, due
// at at, with send order order, files it in the ring or the far heap, and
// returns the zeroed slot for the caller to fill.
func (q *deliveryQueue) push(sent, at clock.Microticks, order uint64) *Message {
	slot := q.free
	if slot >= 0 {
		q.free = q.links[slot].next
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, Message{})
		q.links = append(q.links, slotLink{})
	}
	q.links[slot] = slotLink{order: order, next: -1}
	if q.inRing == 0 && !q.inWindow(at) {
		q.base = sent
	}
	if q.inWindow(at) {
		bk := &q.ring[at&q.mask]
		if bk.head < 0 {
			bk.head = slot
		} else {
			q.links[bk.tail].next = slot
		}
		bk.tail = slot
		q.inRing++
	} else {
		q.pushFar(queueKey{at: at, order: order, slot: slot})
	}
	return &q.slab[slot]
}

// inWindow reports whether instant at falls in the ring's window.
func (q *deliveryQueue) inWindow(at clock.Microticks) bool {
	return at >= q.base && at-q.base <= q.mask
}

// drain appends every message due at or before now to buf in (DeliverAt,
// send order) order, copying each straight out of its slot and zeroing
// the slot so the queue keeps no reference to the payload.
func (q *deliveryQueue) drain(now clock.Microticks, buf []Message) []Message {
	for {
		slot := q.popDue(now)
		if slot < 0 {
			return buf
		}
		buf = append(buf, q.slab[slot])
		q.slab[slot] = Message{}
	}
}

// popDue unlinks the least message due at or before now and returns its
// slot, already on the free list and still holding the message; -1 when
// nothing is due.
func (q *deliveryQueue) popDue(now clock.Microticks) int32 {
	ring := int32(-1)
	if q.inRing == 0 {
		// Saturate at the last instant, so a drain at math.MaxInt64 does
		// not wrap base round and widen the window to every instant.
		if q.base <= now {
			q.base = now
			if now < math.MaxInt64 {
				q.base++
			}
		}
	} else {
		for q.base <= now {
			if h := q.ring[q.base&q.mask].head; h >= 0 {
				ring = h
				break
			}
			q.base++
		}
	}
	var slot int32
	switch {
	case len(q.far) > 0 && q.far[0].at <= now &&
		(ring < 0 || q.far[0].less(queueKey{at: q.base, order: q.links[ring].order})):
		slot = q.popFar()
	case ring >= 0:
		slot = ring
		q.ring[q.base&q.mask].head = q.links[ring].next
		q.inRing--
	default:
		return -1
	}
	q.links[slot].next = q.free
	q.free = slot
	return slot
}

// pushFar sifts a key up the far heap.  Like ddetect's readyQueue it
// avoids container/heap, so nothing is boxed on the per-message path.
func (q *deliveryQueue) pushFar(it queueKey) {
	h := append(q.far, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	q.far = h
}

// popFar removes the far heap's least key and returns its slot.
func (q *deliveryQueue) popFar() int32 {
	h := q.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			least := l
			if r := l + 1; r < n && h[r].less(h[l]) {
				least = r
			}
			if !h[least].less(last) {
				break
			}
			h[i] = h[least]
			i = least
		}
		h[i] = last
	}
	q.far = h
	return top.slot
}
