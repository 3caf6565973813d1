package detector

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// horizonHarness is a pooled three-site detector for NOT(C)[A, D] under
// ctx, with a strict pool so a lifecycle slip panics, and a recorder of
// detection signatures taken inside the handler (a pooled detection is a
// borrow).
type horizonHarness struct {
	d      *Detector
	pool   *event.Pool
	roster *core.Roster
	sigs   []string
}

func newHorizonHarness(t *testing.T, expression string, ctx Context) *horizonHarness {
	t.Helper()
	reg := event.NewRegistry()
	for _, name := range []string{"A", "B", "C", "D"} {
		reg.MustDeclare(name, event.Explicit)
	}
	h := &horizonHarness{
		d:      New("s1", reg, nil),
		roster: core.NewRoster([]core.SiteID{"s1", "s2", "s3"}),
	}
	h.pool = event.NewPool(h.roster)
	h.pool.Strict = true
	h.d.UsePool(h.pool)
	if _, err := h.d.DefineString("G", expression, ctx); err != nil {
		t.Fatal(err)
	}
	h.d.Subscribe("G", func(o *event.Occurrence) { h.sigs = append(h.sigs, sig(o)) })
	return h
}

// publish raises a pooled primitive at site and local tick (global =
// local/10) and drops the creator reference once the detector has it.
func (h *horizonHarness) publish(site core.SiteID, local int64, typ string) {
	o := h.pool.GetPrimitive(typ, event.Explicit, core.DeriveStamp(site, local, tRatio), h.roster.MustSite(site), nil)
	o.TypeID = h.d.Registry().TypeID(typ)
	h.d.Publish(o)
	o.Release()
}

// TestHorizonKeepsSpoiledInitiatorWhileSpoilerIsLive is the limit.go
// counterexample at the detector: initiator A (global 10) is spoiled by C
// (global 13), yet a terminator D concurrent with C (global 14) must still
// pair with A — C is not inside (A, D).  A horizon of 14 (a true bound:
// nothing below D's global follows) leaves C at 13 > 14−3 live, so A must
// survive it.
func TestHorizonKeepsSpoiledInitiatorWhileSpoilerIsLive(t *testing.T) {
	for _, ctx := range Contexts() {
		t.Run(ctx.String(), func(t *testing.T) {
			h := newHorizonHarness(t, "NOT(C)[A, D]", ctx)
			h.publish("s1", 100, "A")
			h.publish("s2", 130, "C")
			h.d.SetHorizon(14)
			if got := h.d.StateSize(); got != 2 {
				t.Fatalf("state after a horizon the spoiler sits above = %d, want 2", got)
			}
			h.publish("s3", 140, "D")
			if len(h.sigs) != 1 || h.sigs[0] != "G[A@100 D@140]" {
				t.Fatalf("detections = %v, want [G[A@100 D@140]]", h.sigs)
			}
			if h.d.reclaimed != 0 {
				t.Fatalf("reclaimed %d entries below a live spoiler", h.d.reclaimed)
			}
		})
	}
}

// TestHorizonFreesDeadInitiatorAndSpoiler: once the horizon passes the
// spoiler's global + 3, no future terminator can be concurrent with it,
// so the spoiled initiator and the spoiler are released to the pool — and
// no detection is lost, because none was possible.
func TestHorizonFreesDeadInitiatorAndSpoiler(t *testing.T) {
	for _, ctx := range Contexts() {
		t.Run(ctx.String(), func(t *testing.T) {
			h := newHorizonHarness(t, "NOT(C)[A, D]", ctx)
			h.publish("s1", 200, "A") // global 20
			h.publish("s2", 230, "C") // global 23: spoils A
			h.d.SetHorizon(25)
			if got := h.d.StateSize(); got != 2 {
				t.Fatalf("state at horizon 25 = %d, want 2 (23 > 25−3)", got)
			}
			h.d.SetHorizon(26)
			if got := h.d.StateSize(); got != 0 {
				t.Fatalf("state at horizon 26 = %d, want 0", got)
			}
			if got := h.d.reclaimed; got != 2 {
				t.Fatalf("reclaimed = %d, want 2", got)
			}
			if is := h.d.Introspect(); is.Reclaimed != 2 || is.Dropped != 0 {
				t.Fatalf("Introspect reclaimed=%d dropped=%d, want 2 and 0", is.Reclaimed, is.Dropped)
			}
			h.publish("s3", 260, "D")
			if len(h.sigs) != 0 {
				t.Fatalf("spoiled initiator paired: %v", h.sigs)
			}
			if ps := h.pool.Stats(); ps.Gets != ps.Puts || ps.DoublePuts != 0 {
				t.Fatalf("pool ledger unbalanced: gets=%d puts=%d double-puts=%d", ps.Gets, ps.Puts, ps.DoublePuts)
			}
		})
	}
}

// TestHorizonKeepsUnspoiledInitiators: a live initiator the dead spoiler
// does not follow stays, and so does every spoiler it precedes.
func TestHorizonKeepsUnspoiledInitiators(t *testing.T) {
	h := newHorizonHarness(t, "NOT(C)[A, D]", Chronicle)
	h.publish("s1", 100, "A") // global 10, spoiled by C@13
	h.publish("s2", 130, "C")
	h.publish("s1", 150, "A") // global 15: after C, unspoiled
	h.publish("s2", 190, "C") // global 19: spoils both
	h.d.SetHorizon(17)        // C@13 dead, C@19 live
	if got := h.d.StateSize(); got != 2 {
		t.Fatalf("state = %d, want 2 (A@150 and C@190)", got)
	}
	h.publish("s3", 200, "D") // global 20: C@190 is concurrent, A@150 pairs
	if len(h.sigs) != 1 || h.sigs[0] != "G[A@150 D@200]" {
		t.Fatalf("detections = %v, want [G[A@150 D@200]]", h.sigs)
	}
}

// TestHorizonCompositeTerminatorNeedsThreeGranules pins the composite
// case of the margin: a terminator (B AND D) completing at global 10 keeps
// B at global 9 — concurrent with D, so Max retains it — and a spoiler C
// at global 8 is not below B (8 < 9−1 fails), so C does not spoil A for
// it.  At horizon 10 a two-granule margin would call C dead and drop A;
// the three-granule margin keeps A and the detection.
func TestHorizonCompositeTerminatorNeedsThreeGranules(t *testing.T) {
	h := newHorizonHarness(t, "NOT(C)[A, (B AND D)]", Chronicle)
	h.publish("s1", 60, "A") // global 6
	h.publish("s3", 80, "C") // global 8: after A
	h.publish("s1", 90, "B") // global 9
	h.d.SetHorizon(10)
	h.publish("s2", 100, "D") // global 10: completes {B@9, D@10}
	if len(h.sigs) != 1 || h.sigs[0] != "G[A@60 B@90 D@100]" {
		t.Fatalf("detections = %v, want [G[A@60 B@90 D@100]]", h.sigs)
	}
}

// TestSetHorizonIsMonotone: a horizon at or below the current one is
// ignored, and detectors without reclaimable nodes just record it.
func TestSetHorizonIsMonotone(t *testing.T) {
	h := newHorizonHarness(t, "NOT(C)[A, D]", Chronicle)
	h.publish("s1", 100, "A")
	h.publish("s2", 130, "C")
	h.d.SetHorizon(40)
	h.d.SetHorizon(10)
	if h.d.horizon != 40 || h.d.StateSize() != 0 {
		t.Fatalf("horizon=%d state=%d, want 40 and 0", h.d.horizon, h.d.StateSize())
	}
	seq := newHorizonHarness(t, "A ; B", Chronicle)
	if len(seq.d.reclaimers) != 0 {
		t.Fatalf("a NOT-free graph collected %d reclaimers", len(seq.d.reclaimers))
	}
}

// horizonExpr draws a NOT whose three arguments are each a primitive or a
// binary composite of primitives, so terminators, initiators and
// spoilers arrive as multi-component Max stamps as well as singletons.
func horizonExpr(r *rand.Rand, types []string) string {
	arg := func() string {
		a, b := types[r.Intn(len(types))], types[r.Intn(len(types))]
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("(%s ; %s)", a, b)
		case 1:
			return fmt.Sprintf("(%s AND %s)", a, b)
		default:
			return a
		}
	}
	return fmt.Sprintf("NOT(%s)[%s, %s]", arg(), arg(), arg())
}

// horizonStream builds a three-site stream in the reorderer's release
// order — ascending (global, site, local), a linear extension of < —
// from clocks offset by under one granule.
func horizonStream(r *rand.Rand, types []string, n int) []*event.Occurrence {
	sites := []core.SiteID{"s1", "s2", "s3"}
	offsets := []int64{0, 4, -3}
	occs := make([]*event.Occurrence, n)
	at := int64(100)
	for i := range occs {
		at += 1 + r.Int63n(12)
		s := r.Intn(len(sites))
		occs[i] = occAt(sites[s], at*3+offsets[s]+int64(s), types[r.Intn(len(types))])
	}
	sort.SliceStable(occs, func(i, j int) bool {
		a, b := occs[i].Stamp[0], occs[j].Stamp[0]
		if a.Global != b.Global {
			return a.Global < b.Global
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Local < b.Local
	})
	return occs
}

// TestHorizonDifferentialProperty: over random NOT definitions with
// composite arguments, every context and random three-site streams, a
// detector handed the tightest valid horizon before each publication —
// the global of the next occurrence, exactly what the stream guarantees —
// emits the same detections as one never given a horizon, while
// actually reclaiming state.
func TestHorizonDifferentialProperty(t *testing.T) {
	types := []string{"A", "B", "C", "D"}
	var reclaimed uint64
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		expression := horizonExpr(r, types)
		stream := horizonStream(r, types, 160)
		for _, ctx := range Contexts() {
			stream := stream
			if ctx == Unrestricted {
				// Unrestricted keeps every composite argument's partial
				// matches; a short prefix keeps the pairing cubic-in-small.
				stream = stream[:48]
			}
			run := func(withHorizon bool) []string {
				d, _ := newTestDetector(t)
				c := &collector{}
				d.MustDefine("G", expression, ctx)
				d.Subscribe("G", c.handler)
				for _, o := range stream {
					if withHorizon {
						d.SetHorizon(o.Stamp[0].Global)
					}
					d.Publish(o)
				}
				reclaimed += d.reclaimed
				return c.sigs()
			}
			off, on := run(false), run(true)
			if fmt.Sprint(off) != fmt.Sprint(on) {
				t.Fatalf("trial %d %s %q: horizon changed detections\noff: %v\non:  %v",
					trial, ctx, expression, off, on)
			}
		}
	}
	if reclaimed == 0 {
		t.Fatalf("no trial reclaimed anything; the property is vacuous")
	}
}
