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
// In-flight messages wait in a delivery queue: a min-heap of compact
// (DeliverAt, send order, slot) keys over a slab of Message values.  Only
// the keys move when the heap sifts; each message is written once on send
// and moved out once on delivery, and its slot is zeroed and reused.  The
// heap orders by (DeliverAt, send order) alone, a total order since send
// order is unique, so delivery order does not depend on slot placement.
package network

import (
	"fmt"
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

// enqueue queues one message due at deliverAt, maintains the send-side
// counters, and returns the message's zeroed slot for the caller to fill
// in place (valid until the next enqueue).  Caller holds b.mu.
func (b *Bus) enqueue(deliverAt clock.Microticks) *Message {
	b.pushSeq++
	m := b.queue.push(deliverAt, b.pushSeq)
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
	m := b.enqueue(now + delay)
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
	return b.sendBatchLocked(now, b.link(from, to), from, to, fromSite, toSite, payload, envelopes, bytes)
}

// SendBatchSite is SendBatch addressed by dense roster indexes — the form
// the transport coalescer uses once the topology is sealed.  Link
// resolution is a slice index plus a short scan; no string is hashed.
//
//sentinel:hotpath
func (b *Bus) SendBatchSite(now clock.Microticks, from, to core.Site, payload any, envelopes, bytes int) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.linkSite(from, to)
	return b.sendBatchLocked(now, ls, ls.key.from, ls.key.to, from, to, payload, envelopes, bytes)
}

// sendBatchLocked is the shared body of SendBatch/SendBatchSite.  Caller
// holds b.mu.
func (b *Bus) sendBatchLocked(now clock.Microticks, ls *linkState, from, to core.SiteID,
	fromSite, toSite core.Site, payload any, envelopes, bytes int) Message {
	delay, attempts := b.draw()
	ls.seq++
	m := b.enqueue(now + delay)
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
	return *m
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
		*b.enqueue(now + delay) = Message{
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
	for b.queue.due(now) {
		buf = append(buf, b.queue.pop())
	}
	b.stats.Delivered += uint64(len(buf) - n)
	return buf
}

// DeliverDue pops every message due at or before now, in deterministic
// (DeliverAt, send order) order, and hands each to fn.
//
//sentinel:hotpath
func (b *Bus) DeliverDue(now clock.Microticks, fn func(Message)) int {
	n := 0
	for {
		b.mu.Lock()
		if !b.queue.due(now) {
			b.mu.Unlock()
			return n
		}
		m := b.queue.pop()
		b.stats.Delivered++
		b.mu.Unlock()
		fn(m)
		n++
	}
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

// NextDeliveryAt returns the earliest pending delivery time.
func (b *Bus) NextDeliveryAt() (clock.Microticks, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.queue.len() == 0 {
		return 0, false
	}
	return b.queue.keys[0].at, true
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

// deliveryQueue is the bus's in-flight set: a binary min-heap of compact
// keys over a slab of messages.  The heap orders 24-byte keys — delivery
// time, push order and the slot holding the message — so a sift moves
// keys, never the Message values (whose strings and interface payload
// made every swap a block copy).  A message is written into its slot once
// at push and moved out once at pop, which zeroes the slot.
//
// Freed slots need no list of their own: a pop shortens the heap by one
// key, and the vacated key position just past the heap records the slot
// it freed.  So keys[len(keys):len(slab)] — the keys slice's spare
// capacity — always holds exactly the free slots, a push reuses the one at
// keys[len(keys)], and neither push nor pop allocates once the slab has
// reached the peak in-flight depth.
//
// The order is (DeliverAt, push order) — the same total order the bus has
// always delivered in.  Push order is unique, so no two keys compare
// equal and the pop sequence is fully determined by the keys: which slot
// a message happens to occupy never influences delivery order.  Like
// ddetect's readyQueue it avoids container/heap, so nothing is boxed on
// the per-message path.
type deliveryQueue struct {
	keys []queueKey
	slab []Message
}

// queueKey is one heap entry: the (DeliverAt, order) sort key and the
// slab slot of its message.  Past the heap's length only slot is
// meaningful: it names a free slab slot.
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

// len returns the number of queued messages.
func (q *deliveryQueue) len() int { return len(q.keys) }

// due reports whether the earliest message is deliverable at now.
func (q *deliveryQueue) due(now clock.Microticks) bool {
	return len(q.keys) > 0 && q.keys[0].at <= now
}

// push takes a free slot (or a new one) for a message due at, sifts its
// key up the heap, and returns the zeroed slot for the caller to fill.
func (q *deliveryQueue) push(at clock.Microticks, order uint64) *Message {
	n := len(q.keys)
	slot := int32(n)
	if n < len(q.slab) {
		slot = q.keys[:n+1][n].slot
	} else {
		q.slab = append(q.slab, Message{})
	}
	it := queueKey{at: at, order: order, slot: slot}
	h := append(q.keys, it)
	i := n
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	q.keys = h
	return &q.slab[slot]
}

// pop removes the earliest message and moves it out of the slab, zeroing
// the slot so the queue keeps no reference to the payload.
func (q *deliveryQueue) pop() Message {
	h := q.keys
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
	h[:n+1][n] = queueKey{slot: top.slot} // record the freed slot
	q.keys = h
	m := q.slab[top.slot]
	q.slab[top.slot] = Message{}
	return m
}
