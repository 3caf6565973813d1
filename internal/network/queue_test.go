package network

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// sent is the test's record of one message put on the bus, indexed by
// its place in the global send order: the link it travelled and the
// number of drains that had run when it was sent.
type sent struct {
	from, to core.Site
	epoch    int
}

// tierCoverage tallies the queue states a traffic run passed through, so
// the property test can insist that every tier and transition was
// exercised rather than trusting the random traffic to reach them.
type tierCoverage struct {
	lagging   int // sends whose instant was behind the last drain instant
	anchors   int // sends that moved an empty ring's window
	behind    int // far-heap entries due before the ring's window
	beyond    int // far-heap entries due beyond the ring's window
	ties      int // far-heap entries sharing an instant with a ring bucket
	jumps     int // drains that emptied the ring and moved base past a whole span
	unitSpans int // runs on a perfect network (a one-bucket ring)
}

// queueTraffic drives random SendBatchSite and SendUnbatchedSite traffic
// interleaved with drains at random increasing instants.  The network is
// perfect for every fifth seed and otherwise has jitter and drops of up
// to 0.5, so repeated retransmits overshoot the ring's window.  A quarter
// of the sends lag the current instant, some of them behind the last
// drain, and occasional idle gaps empty the ring.  Every payload is its
// send-order index.  drain is called once per drain instant and returns
// the messages it popped; the messages of all drains are returned, one
// slice per drain, with the drain instants and the send records.
func queueTraffic(t *testing.T, seed int64, cov *tierCoverage, drain func(b *Bus, now clock.Microticks) []Message) ([][]Message, []clock.Microticks, []sent) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := []core.SiteID{"a", "b", "c", "d", "e"}
	roster := core.NewRoster(ids)
	cfg := Config{Seed: seed}
	if seed%5 != 0 {
		cfg.BaseLatency = clock.Microticks(rng.Intn(20))
		cfg.Jitter = clock.Microticks(1 + rng.Intn(150))
		cfg.DropRate = 0.5 * rng.Float64()
		cfg.RetransmitDelay = clock.Microticks(1 + rng.Intn(100))
	}
	b := NewBus(cfg)
	b.SetRoster(roster)
	if len(b.queue.ring) == 1 {
		cov.unitSpans++
	}
	var log []sent
	var drains [][]Message
	var nows []clock.Microticks
	lastDrain := clock.Microticks(-1)
	do := func(now clock.Microticks) {
		tally(cov, &b.queue)
		base := b.queue.base
		drains = append(drains, drain(b, now))
		nows = append(nows, now)
		lastDrain = now
		if b.queue.inRing == 0 && b.queue.base-base > b.queue.mask+1 {
			cov.jumps++
		}
		checkSlabReleased(t, &b.queue)
	}
	now := clock.Microticks(0)
	for step := 0; step < 300; step++ {
		for k := rng.Intn(6); k > 0; k-- {
			from := core.Site(rng.Intn(len(ids)))
			to := core.Site(rng.Intn(len(ids)))
			at := now
			if rng.Intn(4) == 0 {
				at -= clock.Microticks(rng.Intn(60))
			}
			if at < lastDrain {
				cov.lagging++
			}
			base := b.queue.base
			if rng.Intn(2) == 0 {
				b.SendBatchSite(at, from, to, len(log), 1+rng.Intn(4), rng.Intn(64))
				log = append(log, sent{from: from, to: to, epoch: len(drains)})
			} else {
				n, first := 1+rng.Intn(3), len(log)
				b.SendUnbatchedSite(at, from, to, n, func(i int) any { return first + i })
				for i := 0; i < n; i++ {
					log = append(log, sent{from: from, to: to, epoch: len(drains)})
				}
			}
			if b.queue.base != base {
				cov.anchors++
			}
		}
		if rng.Intn(3) == 0 {
			do(now)
		}
		now += clock.Microticks(rng.Intn(40))
		if rng.Intn(25) == 0 {
			now += clock.Microticks(1000 + rng.Intn(4000))
		}
	}
	for b.Pending() > 0 {
		now += clock.Microticks(1 + rng.Intn(80))
		do(now)
	}
	return drains, nows, log
}

// tally records which tier states the queue is in just before a drain.
func tally(cov *tierCoverage, q *deliveryQueue) {
	span := q.mask + 1
	for _, k := range q.far {
		if k.at < q.base {
			cov.behind++
		}
		if k.at-q.base >= span {
			cov.beyond++
		}
		if k.at >= q.base && k.at-q.base < span && q.ring[k.at&q.mask].head >= 0 {
			cov.ties++
		}
	}
}

// checkSlabReleased asserts the queue's bookkeeping: every slab slot is
// named exactly once — by a ring bucket's list, by the far heap or by the
// free list — and every free slot is zeroed, so the queue pins no payload.
// Each bucket lists one instant inside the window in increasing send
// order, ending at its tail; the far heap is a heap whose keys match their
// messages.
func checkSlabReleased(t *testing.T, q *deliveryQueue) {
	t.Helper()
	owner := make([]int, len(q.slab))
	name := func(slot int32, by string) {
		if slot < 0 || int(slot) >= len(q.slab) {
			t.Fatalf("%s names slot %d of a %d-slot slab", by, slot, len(q.slab))
		}
		if owner[slot]++; owner[slot] > 1 {
			t.Fatalf("slot %d named twice (again by %s)", slot, by)
		}
	}
	span := q.mask + 1
	inRing := 0
	for i, bk := range q.ring {
		var last int32 = -1
		for s := bk.head; s >= 0; s = q.links[s].next {
			name(s, "a ring bucket")
			at := q.slab[s].DeliverAt
			if at < q.base || at-q.base >= span || at&q.mask != clock.Microticks(i) {
				t.Fatalf("bucket %d holds a message due at %d, window [%d, %d)", i, at, q.base, q.base+span)
			}
			if last >= 0 && (q.slab[last].DeliverAt != at || q.links[last].order >= q.links[s].order) {
				t.Fatalf("bucket %d out of send order: order %d (at %d) before %d (at %d)",
					i, q.links[last].order, q.slab[last].DeliverAt, q.links[s].order, at)
			}
			last = s
			inRing++
		}
		if last >= 0 && bk.tail != last {
			t.Fatalf("bucket %d ends at slot %d, tail is %d", i, last, bk.tail)
		}
	}
	if inRing != q.inRing {
		t.Fatalf("ring lists %d messages, count says %d", inRing, q.inRing)
	}
	for i, k := range q.far {
		name(k.slot, "the far heap")
		if i > 0 && k.less(q.far[(i-1)/2]) {
			t.Fatalf("far heap order broken at %d", i)
		}
		if k.at != q.slab[k.slot].DeliverAt || k.order != q.links[k.slot].order {
			t.Fatalf("far key %+v disagrees with its message (at %d, order %d)", k, q.slab[k.slot].DeliverAt, q.links[k.slot].order)
		}
	}
	for s := q.free; s >= 0; s = q.links[s].next {
		name(s, "the free list")
		if q.slab[s] != (Message{}) {
			t.Fatalf("free slot %d still holds %+v", s, q.slab[s])
		}
	}
	for slot, n := range owner {
		if n != 1 {
			t.Fatalf("slab slot %d is named by nothing", slot)
		}
	}
}

// checkQueueOrder compares the drains against the reference: every sent
// message delivered exactly once, and each drain holding exactly the
// messages pending at it — sent before it and not yet delivered — that
// are due by its instant, in the order of a stable sort of the send order
// by DeliverAt.
func checkQueueOrder(t *testing.T, drains [][]Message, nows []clock.Microticks, log []sent) {
	t.Helper()
	at := make([]clock.Microticks, len(log))
	seen := make([]bool, len(log))
	total := 0
	for _, batch := range drains {
		for _, m := range batch {
			id := m.Payload.(int)
			if seen[id] {
				t.Fatalf("message %d delivered twice", id)
			}
			seen[id] = true
			if m.FromSite != log[id].from || m.ToSite != log[id].to {
				t.Fatalf("message %d on link %d->%d, sent on %d->%d", id, m.FromSite, m.ToSite, log[id].from, log[id].to)
			}
			at[id] = m.DeliverAt
			total++
		}
	}
	if total != len(log) {
		t.Fatalf("delivered %d of %d messages", total, len(log))
	}
	done := make([]bool, len(log))
	for j, batch := range drains {
		var want []int
		for id := range log {
			if !done[id] && log[id].epoch <= j && at[id] <= nows[j] {
				want = append(want, id)
				done[id] = true
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return at[want[a]] < at[want[b]] })
		if len(batch) != len(want) {
			t.Fatalf("drain %d at %d popped %d messages, reference %d", j, nows[j], len(batch), len(want))
		}
		for i, m := range batch {
			if id := m.Payload.(int); id != want[i] {
				t.Fatalf("drain %d at %d, position %d: delivered message %d (at %d), reference %d (at %d)",
					j, nows[j], i, id, at[id], want[i], at[want[i]])
			}
		}
	}
}

// TestDeliveryQueueProperty checks the calendar queue against the
// reference of checkQueueOrder under random batched and unbatched
// traffic, and its bookkeeping after every drain.  The traffic must reach
// every tier and transition: lagging sends, sends that move an empty
// ring's window, far entries behind and beyond the window, ring/far ties,
// ring-emptying gaps and one-bucket rings.
func TestDeliveryQueueProperty(t *testing.T) {
	var cov tierCoverage
	for seed := int64(1); seed <= 40; seed++ {
		var buf []Message
		drains, nows, log := queueTraffic(t, seed, &cov, func(b *Bus, now clock.Microticks) []Message {
			buf = b.DrainDue(now, buf[:0])
			return append([]Message(nil), buf...)
		})
		checkQueueOrder(t, drains, nows, log)
	}
	if cov.lagging == 0 || cov.anchors == 0 || cov.behind == 0 || cov.beyond == 0 ||
		cov.ties == 0 || cov.jumps == 0 || cov.unitSpans == 0 {
		t.Fatalf("traffic missed a queue state: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

// BenchmarkBusSteadyState measures one tick of wide-lossy-wire-shaped bus
// traffic: 64 sites, each of three sinks fed one frame per tick by every
// other site (63×3 links), jitter 60 and drop 0.05 with retransmission,
// then one DrainDue.  The standing in-flight depth settles near 200
// messages; the queue's slab and the drain buffer are warmed up before
// timing, so the steady state must allocate nothing.  99.7% of the pushes
// land in the calendar ring (the rest are retransmits beyond its window),
// so this is the ring's representative; ns/msg is the cost of one
// message's push plus pop.
func BenchmarkBusSteadyState(b *testing.B) {
	const sites, tick = 64, 80
	sinks := []core.Site{0, 21, 42}
	bus := NewBus(Config{BaseLatency: 20, Jitter: 60, DropRate: 0.05, RetransmitDelay: 80, Seed: 1})
	bus.SetRoster(core.NewRoster(benchSiteIDs(sites)))
	frame := &struct{ bytes []byte }{}
	var buf []Message
	now := clock.Microticks(0)
	msgs := 0
	step := func() {
		for _, to := range sinks {
			for from := core.Site(0); from < sites; from++ {
				if from != to {
					bus.SendBatchSite(now, from, to, frame, 2, 24)
					msgs++
				}
			}
		}
		buf = bus.DrainDue(now, buf[:0])
		now += tick
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	depth := 0
	msgs = 0
	for i := 0; i < b.N; i++ {
		step()
		depth += bus.Pending()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(depth)/float64(b.N), "depth")
}

func benchSiteIDs(n int) []core.SiteID {
	ids := make([]core.SiteID, n)
	for i := range ids {
		ids[i] = core.SiteID(rune('A'+i/26)) + core.SiteID(rune('a'+i%26))
	}
	return ids
}
