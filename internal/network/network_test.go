package network

import (
	"math"
	"testing"
)

func TestPerfectNetworkDeliversInOrder(t *testing.T) {
	b := NewBus(Config{})
	for i := 0; i < 5; i++ {
		b.Send(int64(i), "a", "b", i)
	}
	var got []int
	for _, m := range b.DrainDue(100, nil) {
		got = append(got, m.Payload.(int))
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestLinkSequenceNumbers(t *testing.T) {
	b := NewBus(Config{})
	m1 := b.Send(0, "a", "b", nil)
	m2 := b.Send(0, "a", "b", nil)
	m3 := b.Send(0, "a", "c", nil)
	m4 := b.Send(0, "c", "b", nil)
	if m1.Seq != 1 || m2.Seq != 2 {
		t.Errorf("same-link seqs = %d, %d", m1.Seq, m2.Seq)
	}
	if m3.Seq != 1 || m4.Seq != 1 {
		t.Errorf("distinct links must have independent seqs: %d, %d", m3.Seq, m4.Seq)
	}
}

func TestLatencyDefersDelivery(t *testing.T) {
	b := NewBus(Config{BaseLatency: 50})
	b.Send(10, "a", "b", "x")
	if got := b.DrainDue(59, nil); len(got) != 0 {
		t.Fatalf("delivered before due")
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", b.Pending())
	}
	if got := b.DrainDue(60, nil); len(got) != 1 || got[0].DeliverAt != 60 {
		t.Fatalf("due message not delivered: %+v", got)
	}
	if b.Pending() != 0 {
		t.Fatalf("queue should be empty")
	}
}

// A drain at the last representable instant must not wrap the ring's
// cursor: a later send due at 10 stays undelivered at 0, and a send due
// at the last instant itself is still delivered.
func TestDrainAtMaxInstant(t *testing.T) {
	b := NewBus(Config{BaseLatency: 10})
	b.Send(0, "a", "b", "first")
	if got := b.DrainDue(math.MaxInt64, nil); len(got) != 1 {
		t.Fatalf("drain at MaxInt64 delivered %d, want 1", len(got))
	}
	b.Send(0, "a", "b", "late")
	if got := b.DrainDue(0, nil); len(got) != 0 {
		t.Fatalf("message due at 10 delivered at 0: %+v", got)
	}
	if got := b.DrainDue(10, nil); len(got) != 1 || got[0].DeliverAt != 10 {
		t.Fatalf("message due at 10 not delivered at 10: %+v", got)
	}
	b.Send(math.MaxInt64-10, "a", "b", "last")
	if got := b.DrainDue(math.MaxInt64-1, nil); len(got) != 0 {
		t.Fatalf("message due at MaxInt64 delivered early: %+v", got)
	}
	if got := b.DrainDue(math.MaxInt64, nil); len(got) != 1 || got[0].DeliverAt != math.MaxInt64 {
		t.Fatalf("message due at MaxInt64 not delivered: %+v", got)
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", b.Pending())
	}
}

func TestJitterReorders(t *testing.T) {
	b := NewBus(Config{BaseLatency: 10, Jitter: 100, Seed: 1})
	const n = 50
	for i := 0; i < n; i++ {
		b.Send(int64(i), "a", "b", i)
	}
	var got []int
	for _, m := range b.DrainDue(1_000, nil) {
		got = append(got, m.Payload.(int))
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("jitter 10x the gap should reorder at least one pair")
	}
}

func TestDropsRetransmit(t *testing.T) {
	b := NewBus(Config{DropRate: 0.5, RetransmitDelay: 100, Seed: 3})
	const n = 100
	for i := 0; i < n; i++ {
		b.Send(0, "a", "b", i)
	}
	delivered := len(b.DrainDue(1_000_000, nil))
	if delivered != n {
		t.Fatalf("reliable delivery broken: %d of %d", delivered, n)
	}
	st := b.Stats()
	if st.Retransmitted == 0 {
		t.Fatalf("no retransmissions at 50%% drop rate")
	}
	if st.Sent != n || st.Delivered != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAttemptsRecorded(t *testing.T) {
	b := NewBus(Config{DropRate: 0.9, RetransmitDelay: 10, Seed: 12})
	m := b.Send(0, "a", "b", nil)
	if m.Attempts < 1 {
		t.Fatalf("Attempts = %d", m.Attempts)
	}
	if m.DeliverAt != int64(m.Attempts-1)*10 {
		t.Fatalf("delay %d inconsistent with %d attempts", m.DeliverAt, m.Attempts)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	mk := func() []int64 {
		b := NewBus(Config{BaseLatency: 5, Jitter: 50, DropRate: 0.2, RetransmitDelay: 30, Seed: 42})
		var due []int64
		for i := 0; i < 20; i++ {
			due = append(due, b.Send(int64(i), "a", "b", nil).DeliverAt)
		}
		return due
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BaseLatency: -1},
		{Jitter: -1},
		{DropRate: -0.1},
		{DropRate: 1.0, RetransmitDelay: 1},
		{DropRate: 0.5}, // no retransmit delay
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestNewBusPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewBus must panic on invalid config")
		}
	}()
	NewBus(Config{DropRate: -1})
}

func TestMaxInFlightTracked(t *testing.T) {
	b := NewBus(Config{BaseLatency: 100})
	for i := 0; i < 7; i++ {
		b.Send(0, "a", "b", nil)
	}
	if st := b.Stats(); st.MaxInFlight != 7 {
		t.Fatalf("MaxInFlight = %d, want 7", st.MaxInFlight)
	}
	if b.Pending() != 7 {
		t.Fatalf("Pending = %d", b.Pending())
	}
}
