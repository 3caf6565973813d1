package network

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// TestDrainDueCadenceIndependent pins that the drain cadence does not
// change what is delivered: the same traffic drained at every instant and
// every 25 instants into a reused buffer yields the same messages in the
// same deterministic (DeliverAt, send order) order.
func TestDrainDueCadenceIndependent(t *testing.T) {
	cfg := Config{BaseLatency: 10, Jitter: 50, Seed: 8}
	load := func(b *Bus) {
		for i := 0; i < 200; i++ {
			b.Send(clock.Microticks(i), "a", "b", i)
			b.Send(clock.Microticks(i), "b", "a", i)
		}
	}
	drainEvery := func(step clock.Microticks) ([]Message, *Bus) {
		b := NewBus(cfg)
		load(b)
		var got, buf []Message
		for now := clock.Microticks(0); b.Pending() > 0; now += step {
			buf = b.DrainDue(now, buf[:0])
			got = append(got, buf...)
		}
		return got, b
	}
	want, one := drainEvery(1)
	got, batch := drainEvery(25)
	if len(want) != 400 || len(got) != len(want) {
		t.Fatalf("drained %d messages every 25 instants, %d every instant, want 400", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if batch.Stats().Delivered != one.Stats().Delivered {
		t.Fatalf("delivered stats diverge: %d vs %d", batch.Stats().Delivered, one.Stats().Delivered)
	}
}

func TestDrainDueEmptyAndBufferGrowth(t *testing.T) {
	b := NewBus(Config{})
	if got := b.DrainDue(100, nil); got != nil {
		t.Fatalf("empty bus drained %v", got)
	}
	for i := 0; i < 10; i++ {
		b.Send(0, "a", "b", i)
	}
	buf := make([]Message, 0, 2) // force growth
	buf = b.DrainDue(0, buf)
	if len(buf) != 10 {
		t.Fatalf("drained %d of 10", len(buf))
	}
	for i, m := range buf {
		if m.Payload.(int) != i {
			t.Fatalf("message %d out of order: %v", i, m.Payload)
		}
	}
}

// loadBus enqueues n messages across k links, all due by horizon.
func loadBus(b *Bus, n int) {
	for i := 0; i < n; i++ {
		from := core.SiteID(fmt.Sprintf("s%d", i%8))
		to := core.SiteID(fmt.Sprintf("s%d", (i+1)%8))
		b.Send(clock.Microticks(i%100), from, to, i)
	}
}

// BenchmarkDrainDue measures the batch-drain path the transport stage
// uses: one lock acquisition, and pops appended into a caller-owned slice
// reused across iterations.
func BenchmarkDrainDue(b *testing.B) {
	b.ReportAllocs()
	var buf []Message
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bus := NewBus(Config{BaseLatency: 5, Jitter: 20, Seed: 1})
		loadBus(bus, 1024)
		b.StartTimer()
		buf = bus.DrainDue(1_000_000, buf[:0])
		if len(buf) != 1024 {
			b.Fatalf("drained %d", len(buf))
		}
	}
}
