package ddetect

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
)

// heartbeatSystem builds a sealed sites-site system whose only consumers
// sit at two hosts, so every other site heartbeats both sinks each period,
// and warms it up with raises and heartbeat-only steps.
func heartbeatSystem(t *testing.T, sites int, serialize bool) *System {
	t.Helper()
	sys := MustNewSystem(Config{
		Net:       network.Config{BaseLatency: 20, Jitter: 60, Seed: 3},
		Serialize: serialize,
	})
	ids := make([]core.SiteID, sites)
	for i := range ids {
		ids[i] = core.SiteID(fmt.Sprintf("s%02d", i))
		sys.MustAddSite(ids[i], int64(i%7)*3, 0)
	}
	for _, typ := range []string{"A", "B"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	for _, host := range []core.SiteID{ids[0], ids[sites/2]} {
		if _, err := sys.DefineAt(host, "Seq@"+string(host), "A ; B", detector.Chronicle); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		sys.Site(ids[(i*7)%sites]).MustRaise([]string{"A", "B"}[i%2], event.Explicit, nil)
		sys.Step(sys.cfg.HeartbeatEvery)
	}
	if err := sys.Settle(1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sys.Step(sys.cfg.HeartbeatEvery)
	}
	return sys
}

// checkRunsReturned asserts that every envRun box the coalescer ever
// allocated is either in flight on the bus — each batched message carries
// exactly one — or back on the free list, emptied, with its frame buffer
// kept for reuse when serializing.
func checkRunsReturned(t *testing.T, sys *System) {
	t.Helper()
	c := sys.coal
	if pending := sys.bus.Pending(); len(c.freeRuns)+pending != c.runs {
		t.Fatalf("%d boxes free + %d in flight != %d allocated", len(c.freeRuns), pending, c.runs)
	}
	for i, run := range c.freeRuns {
		if run.envs != nil || len(run.frame) != 0 {
			t.Fatalf("free box %d still holds %d envelopes, %d frame bytes", i, len(run.envs), len(run.frame))
		}
		if sys.cfg.Serialize && cap(run.frame) == 0 {
			t.Fatalf("free box %d lost its frame buffer", i)
		}
	}
}

// TestHeartbeatStepAllocs pins the allocation cost of a heartbeat-only
// Step, the steady watermark traffic every sink needs: serialized it must
// allocate no more than in memory (frames ride in pooled boxes with their
// own reused buffers, the delivery queue reuses its slab), and the count
// must not grow with the number of heartbeating sites.  After Settle every
// box handed to the bus is back on the coalescer's free list.
func TestHeartbeatStepAllocs(t *testing.T) {
	allocs := map[bool][]float64{}
	for _, sites := range []int{16, 64} {
		for _, serialize := range []bool{false, true} {
			sys := heartbeatSystem(t, sites, serialize)
			checkRunsReturned(t, sys)
			n := testing.AllocsPerRun(50, func() { sys.Step(sys.cfg.HeartbeatEvery) })
			if err := sys.Settle(1000); err != nil {
				t.Fatal(err)
			}
			checkRunsReturned(t, sys)
			t.Logf("%d sites, serialize=%v: %.1f allocs per heartbeat step", sites, serialize, n)
			allocs[serialize] = append(allocs[serialize], n)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats the wire codec's sync.Pool scratch, so only the box accounting above holds")
	}
	for i, sites := range []int{16, 64} {
		if mem, ser := allocs[false][i], allocs[true][i]; ser != mem {
			t.Errorf("%d sites: serialized step allocates %.1f, in-memory %.1f", sites, ser, mem)
		}
	}
	for _, serialize := range []bool{false, true} {
		if a16, a64 := allocs[serialize][0], allocs[serialize][1]; a64 > a16 {
			t.Errorf("serialize=%v: allocs grow with sites: %.1f at 16, %.1f at 64", serialize, a16, a64)
		}
	}
}

// TestOutOfOrderBufferingRecycles pins that the reorderer buffers an
// out-of-order batch in a run recycled from an earlier drain: once warm,
// a gap-then-fill cycle on one link allocates nothing, and every buffered
// envelope is accounted back out.
func TestOutOfOrderBufferingRecycles(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	r := newReorderer(roster)
	a := roster.MustSite("a")
	envs := []envelope{{Kind: envHeartbeat, Global: 1}, {Kind: envHeartbeat, Global: 2}}
	seq := uint64(1)
	cycle := func() {
		if err := r.acceptBatch(a, seq+1, envs); err != nil {
			t.Fatal(err)
		}
		if err := r.acceptBatch(a, seq, envs); err != nil {
			t.Fatal(err)
		}
		seq += 2
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("gap-then-fill cycle allocates %.1f times, want 0", n)
	}
	if r.buffered != 0 || len(r.sources[a].pending) != 0 || len(r.runs) != 1 {
		t.Errorf("after the cycles: buffered %d, pending %d, spare runs %d; want 0, 0, 1",
			r.buffered, len(r.sources[a].pending), len(r.runs))
	}
}
