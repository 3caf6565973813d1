package network

import (
	"testing"

	"repro/internal/core"
)

// TestSiteSendsMatchStringSends drives two identically seeded buses — one
// addressed by strings, one by dense roster indexes — through the same
// traffic and asserts the delivered messages and link stats agree, so the
// dense index is a pure addressing change.
func TestSiteSendsMatchStringSends(t *testing.T) {
	ids := []core.SiteID{"a", "b", "c"}
	roster := core.NewRoster(ids)
	cfg := Config{BaseLatency: 5, Jitter: 3, DropRate: 0.2, RetransmitDelay: 7, Seed: 9}
	byStr := NewBus(cfg)
	bySite := NewBus(cfg)
	bySite.SetRoster(roster)

	for i := 0; i < 50; i++ {
		from := ids[i%len(ids)]
		to := ids[(i+1)%len(ids)]
		now := int64(i * 10)
		byStr.SendBatch(now, from, to, i, 3, 12)
		bySite.SendBatchSite(now, roster.MustSite(from), roster.MustSite(to), i, 3, 12)
		byStr.SendUnbatched(now, to, from, 2, func(j int) any { return j })
		bySite.SendUnbatchedSite(now, roster.MustSite(to), roster.MustSite(from), 2, func(j int) any { return j })
	}

	var a, b []Message
	a = byStr.DrainDue(1<<40, a)
	b = bySite.DrainDue(1<<40, b)
	if len(a) != len(b) {
		t.Fatalf("delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Seq != b[i].Seq ||
			a[i].DeliverAt != b[i].DeliverAt || a[i].Attempts != b[i].Attempts {
			t.Fatalf("message %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if b[i].FromSite != roster.MustSite(b[i].From) || b[i].ToSite != roster.MustSite(b[i].To) {
			t.Fatalf("message %d dense addressing wrong: %+v", i, b[i])
		}
		if a[i].FromSite != core.NoSite || a[i].ToSite != core.NoSite {
			t.Fatalf("rosterless message %d should carry NoSite: %+v", i, a[i])
		}
	}

	sa, sb := byStr.LinkStats(), bySite.LinkStats()
	if len(sa) != len(sb) {
		t.Fatalf("link stats length %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("link stat %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestSetRosterRehomesExistingLinks checks a link opened before SetRoster
// is reachable through the dense path afterwards with its sequence intact.
func TestSetRosterRehomesExistingLinks(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	bus := NewBus(Config{})
	bus.Send(0, "a", "b", "early")
	bus.SetRoster(roster)
	bus.SendBatchSite(1, roster.MustSite("a"), roster.MustSite("b"), "late", 1, 0)
	msgs := bus.DrainDue(1, nil)
	if len(msgs) != 2 {
		t.Fatalf("drained %d messages, want 2", len(msgs))
	}
	m := msgs[1]
	if m.Payload != "late" || m.Seq != 2 {
		t.Fatalf("dense send after re-home got seq %d, want 2 (continuing the string link)", m.Seq)
	}
	if m.From != "a" || m.To != "b" {
		t.Fatalf("dense send lost string addressing: %+v", m)
	}
}

// TestLinkSeqCountsSentMessages: LinkSeq is the last sequence number the
// link stamped — batched and unbatched sends alike, retransmissions not
// counted twice — and 0 for a link that never carried traffic.
func TestLinkSeqCountsSentMessages(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	a, b, c := roster.MustSite("a"), roster.MustSite("b"), roster.MustSite("c")
	bus := NewBus(Config{BaseLatency: 5, DropRate: 0.5, RetransmitDelay: 7, Seed: 3})
	bus.SetRoster(roster)
	if got := bus.LinkSeq(a, b); got != 0 {
		t.Fatalf("unused link LinkSeq = %d, want 0", got)
	}
	for i := 0; i < 4; i++ {
		bus.SendBatchSite(int64(i), a, b, i, 2, 0)
	}
	if got := bus.LinkSeq(a, b); got != 4 {
		t.Fatalf("LinkSeq(a, b) = %d after 4 batches, want 4", got)
	}
	bus.SendUnbatchedSite(9, a, b, 3, func(j int) any { return j })
	if got := bus.LinkSeq(a, b); got != 7 {
		t.Fatalf("LinkSeq(a, b) = %d, want 7", got)
	}
	if got := bus.LinkSeq(b, a); got != 0 {
		t.Fatalf("reverse link LinkSeq = %d, want 0", got)
	}
	bus.SendBatchSite(0, c, b, nil, 1, 0)
	if got := bus.LinkSeq(c, b); got != 1 {
		t.Fatalf("LinkSeq(c, b) = %d, want 1", got)
	}
}
