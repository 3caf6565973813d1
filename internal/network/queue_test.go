package network

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// sent is the test's record of one message put on the bus, indexed by
// its place in the global send order: the link it travelled.
type sent struct {
	from, to core.Site
}

// queueTraffic drives random SendBatchSite and SendUnbatchedSite traffic
// under jitter and drops, interleaved with drains at random increasing
// times.  Every payload is its send-order index.  drain is called once per
// drain instant and returns the messages it popped; the messages of all
// drains are returned, one slice per drain, with the drain instants and
// the send records.
func queueTraffic(t *testing.T, seed int64, drain func(b *Bus, now clock.Microticks) []Message) ([][]Message, []clock.Microticks, []sent) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := []core.SiteID{"a", "b", "c", "d", "e"}
	roster := core.NewRoster(ids)
	b := NewBus(Config{
		BaseLatency:     clock.Microticks(rng.Intn(20)),
		Jitter:          clock.Microticks(1 + rng.Intn(150)),
		DropRate:        0.3 * rng.Float64(),
		RetransmitDelay: clock.Microticks(1 + rng.Intn(100)),
		Seed:            seed,
	})
	b.SetRoster(roster)
	var log []sent
	var drains [][]Message
	var nows []clock.Microticks
	now := clock.Microticks(0)
	for step := 0; step < 300; step++ {
		for k := rng.Intn(6); k > 0; k-- {
			from := core.Site(rng.Intn(len(ids)))
			to := core.Site(rng.Intn(len(ids)))
			if rng.Intn(2) == 0 {
				m := b.SendBatchSite(now, from, to, len(log), 1+rng.Intn(4), rng.Intn(64))
				if m.Payload.(int) != len(log) {
					t.Fatalf("SendBatchSite returned payload %v, want %d", m.Payload, len(log))
				}
				log = append(log, sent{from: from, to: to})
				continue
			}
			n, base := 1+rng.Intn(3), len(log)
			b.SendUnbatchedSite(now, from, to, n, func(i int) any { return base + i })
			for i := 0; i < n; i++ {
				log = append(log, sent{from: from, to: to})
			}
		}
		if rng.Intn(3) == 0 {
			drains = append(drains, drain(b, now))
			nows = append(nows, now)
			checkSlabReleased(t, &b.queue)
		}
		now += clock.Microticks(rng.Intn(40))
	}
	for b.Pending() > 0 {
		now += clock.Microticks(1 + rng.Intn(80))
		drains = append(drains, drain(b, now))
		nows = append(nows, now)
		checkSlabReleased(t, &b.queue)
	}
	return drains, nows, log
}

// checkSlabReleased asserts that the free-slot records past the heap name
// exactly the slab slots no key refers to, and that every such slot —
// every popped message's slot — is zeroed, so the queue pins no payload.
func checkSlabReleased(t *testing.T, q *deliveryQueue) {
	t.Helper()
	owner := make([]int, len(q.slab))
	for _, k := range q.keys {
		owner[k.slot]++
	}
	for _, k := range q.keys[len(q.keys):len(q.slab)] {
		owner[k.slot]++
		if q.slab[k.slot] != (Message{}) {
			t.Fatalf("popped slot %d still holds %+v", k.slot, q.slab[k.slot])
		}
	}
	for slot, n := range owner {
		if n != 1 {
			t.Fatalf("slab slot %d is named by %d keys and free records, want 1", slot, n)
		}
	}
}

// checkQueueOrder compares the drains against the reference: every sent
// message delivered exactly once, at the first drain instant at or after
// its DeliverAt, with the whole sequence equal to a stable sort of the
// send order by DeliverAt.
func checkQueueOrder(t *testing.T, drains [][]Message, nows []clock.Microticks, log []sent) {
	t.Helper()
	at := make([]clock.Microticks, len(log))
	got := make([]int, 0, len(log))
	seen := make([]bool, len(log))
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
			got = append(got, id)
		}
	}
	if len(got) != len(log) {
		t.Fatalf("delivered %d of %d messages", len(got), len(log))
	}
	want := make([]int, len(log))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: delivered message %d (at %d), reference %d (at %d)",
				i, got[i], at[got[i]], want[i], at[want[i]])
		}
	}
	// Partition: drain j holds exactly the messages due in (now[j-1], now[j]].
	prev := clock.Microticks(-1 << 62)
	for j, batch := range drains {
		for _, m := range batch {
			if m.DeliverAt > nows[j] || m.DeliverAt <= prev {
				t.Fatalf("message %d due at %d popped by the drain at %d (previous drain %d)",
					m.Payload, m.DeliverAt, nows[j], prev)
			}
		}
		prev = nows[j]
	}
}

// TestDeliveryQueueProperty checks the key-over-slab heap against a
// stable sort by (DeliverAt, send order) under random batched and
// unbatched traffic with jitter and drops, through both drain forms, and
// that popped slots release their payloads.
func TestDeliveryQueueProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		drains, nows, log := queueTraffic(t, seed, func(b *Bus, now clock.Microticks) []Message {
			return b.DrainDue(now, nil)
		})
		checkQueueOrder(t, drains, nows, log)

		byFn, fnNows, fnLog := queueTraffic(t, seed, func(b *Bus, now clock.Microticks) []Message {
			var out []Message
			n := b.DeliverDue(now, func(m Message) { out = append(out, m) })
			if n != len(out) {
				t.Fatalf("DeliverDue returned %d, delivered %d", n, len(out))
			}
			return out
		})
		checkQueueOrder(t, byFn, fnNows, fnLog)
		for j := range drains {
			for i := range drains[j] {
				if drains[j][i] != byFn[j][i] {
					t.Fatalf("seed %d: DrainDue and DeliverDue differ at drain %d: %+v vs %+v",
						seed, j, drains[j][i], byFn[j][i])
				}
			}
		}
	}
}

// BenchmarkBusSteadyState measures one tick of wide-lossy-wire-shaped bus
// traffic: 64 sites, each of three sinks fed one frame per tick by every
// other site (63×3 links), jitter 60 and drop 0.05 with retransmission,
// then one DrainDue.  The standing in-flight depth settles near 200
// messages; the queue's slab and the drain buffer are warmed up before
// timing, so the steady state must allocate nothing.
func BenchmarkBusSteadyState(b *testing.B) {
	const sites, tick = 64, 80
	sinks := []core.Site{0, 21, 42}
	bus := NewBus(Config{BaseLatency: 20, Jitter: 60, DropRate: 0.05, RetransmitDelay: 80, Seed: 1})
	bus.SetRoster(core.NewRoster(benchSiteIDs(sites)))
	frame := &struct{ bytes []byte }{}
	var buf []Message
	now := clock.Microticks(0)
	step := func() {
		for _, to := range sinks {
			for from := core.Site(0); from < sites; from++ {
				if from != to {
					bus.SendBatchSite(now, from, to, frame, 2, 24)
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
	for i := 0; i < b.N; i++ {
		step()
		depth += bus.Pending()
	}
	b.ReportMetric(float64(depth)/float64(b.N), "depth")
}

func benchSiteIDs(n int) []core.SiteID {
	ids := make([]core.SiteID, n)
	for i := range ids {
		ids[i] = core.SiteID(rune('A'+i/26)) + core.SiteID(rune('a'+i%26))
	}
	return ids
}
