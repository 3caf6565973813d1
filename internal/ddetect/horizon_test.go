package ddetect

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/denote"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// disableHorizon is the "off" arm of the reclamation differential: every
// detector runs as if no reorderer bound existed and is never handed a
// horizon.  Call it after sealing (sys.Roster()).
func disableHorizon(sys *System) {
	for _, s := range sys.sites {
		s.reclaims = false
	}
}

// reclaimedTotal sums horizon reclamation over every site's detector.
func reclaimedTotal(sys *System) uint64 {
	var n uint64
	for _, s := range sys.sites {
		n += s.det.Introspect().Reclaimed
	}
	return n
}

// horizonDef is one generated definition.  Primitive-only definitions
// (every argument a primitive type) also carry their denotational oracle.
type horizonDef struct {
	name, expr string
	host       int
	oracle     func(h *denote.History) []denote.Detection
}

// genHorizonDefs draws a definition set around NOT: NOT over random
// primitive or composite arguments, plus SEQ and AND.  With prims set,
// every argument is a primitive and each definition has its denote
// oracle (the Unrestricted comparison is exact there).
func genHorizonDefs(r *rand.Rand, types []string, sites int, prims bool) []horizonDef {
	pick := func() string { return types[r.Intn(len(types))] }
	arg := func() string {
		if prims || r.Intn(2) == 0 {
			return pick()
		}
		ops := []string{";", "AND", "OR"}
		return fmt.Sprintf("(%s %s %s)", pick(), ops[r.Intn(len(ops))], pick())
	}
	var defs []horizonDef
	for i := 0; i < 4; i++ {
		d := horizonDef{name: fmt.Sprintf("H%d", i), host: r.Intn(sites)}
		x, y, z := arg(), arg(), arg()
		switch {
		case i < 2: // NOT-heavy: the reclaiming operator
			d.expr = fmt.Sprintf("NOT(%s)[%s, %s]", x, y, z)
			d.oracle = func(h *denote.History) []denote.Detection { return denote.Not(h.Of(x), h.Of(y), h.Of(z)) }
		case i == 2:
			d.expr = fmt.Sprintf("%s ; %s", x, y)
			d.oracle = func(h *denote.History) []denote.Detection { return denote.Seq(h.Of(x), h.Of(y)) }
		default:
			d.expr = fmt.Sprintf("%s AND %s", x, y)
			d.oracle = func(h *denote.History) []denote.Detection { return denote.And(h.Of(x), h.Of(y)) }
		}
		if !prims {
			d.oracle = nil
		}
		defs = append(defs, d)
	}
	return defs
}

// horizonRun is one property-test run's configuration.
type horizonRun struct {
	defs    []horizonDef
	ctx     detector.Context
	net     network.Config
	seed    int64
	events  int
	workers int
	noPool  bool
	off     bool
}

// horizonResult is what a run produced: the eventlog of every detection,
// sorted denote-style detection keys per definition, the raised history
// (plain copies, safe past the pooled borrow), and the reclaim total.
type horizonResult struct {
	log       []byte
	keys      map[string][]string
	history   []*event.Occurrence
	reclaimed uint64
}

func runHorizon(t *testing.T, hr horizonRun) horizonResult {
	t.Helper()
	net := hr.net
	net.Seed = hr.seed + 101
	sys := MustNewSystem(Config{Net: net, Pipeline: pipeline.Config{Workers: hr.workers}, DisablePooling: hr.noPool})
	rng := rand.New(rand.NewSource(hr.seed + 202))
	ids := workload.SiteIDs(4)
	for _, id := range ids {
		sys.MustAddSite(id, rng.Int63n(61)-30, rng.Int63n(4))
	}
	types := []string{"A", "B", "C", "D"}
	for _, typ := range types {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	res := horizonResult{keys: map[string][]string{}}
	var buf bytes.Buffer
	log := eventlog.NewWriter(&buf)
	for _, d := range hr.defs {
		if _, err := sys.DefineAt(ids[d.host], d.name, d.expr, hr.ctx); err != nil {
			t.Fatal(err)
		}
		name := d.name
		if err := sys.Subscribe(name, func(o *event.Occurrence) {
			if err := log.Append(o); err != nil {
				t.Errorf("log append: %v", err)
			}
			res.keys[name] = append(res.keys[name], denote.Key(denote.Detection{Constituents: o.Flatten()}))
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Roster()
	if hr.off {
		disableHorizon(sys)
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: types, MeanGap: 40, Count: hr.events, Seed: hr.seed,
	})
	for _, item := range trace.Items {
		sys.Run(item.At, 50)
		o := sys.Site(item.Site).MustRaise(item.Type, event.Explicit, nil)
		res.history = append(res.history, event.NewPrimitive(o.Type, o.Class, o.Stamp[0], nil))
	}
	if err := sys.Settle(50_000); err != nil {
		t.Fatal(err)
	}
	for _, k := range res.keys {
		sort.Strings(k)
	}
	res.log = buf.Bytes()
	res.reclaimed = reclaimedTotal(sys)
	return res
}

// TestHorizonReclamationProperty is the reclamation differential: random
// NOT-centred definition sets × all five contexts × a jittered and a
// lossy network × workers 0/4 × pooling on/off.  Every run with the
// release horizon must produce the byte-identical eventlog of the run
// without it, and Unrestricted runs — over primitive arguments, where the
// comparison is exact — must match the denotational oracle.
func TestHorizonReclamationProperty(t *testing.T) {
	nets := map[string]network.Config{
		"jitter": {BaseLatency: 20, Jitter: 70},
		"lossy":  {BaseLatency: 20, Jitter: 40, DropRate: 0.05, RetransmitDelay: 150},
	}
	types := []string{"A", "B", "C", "D"}
	var reclaimed uint64
	oracled := 0
	for trial := int64(0); trial < 2; trial++ {
		for _, ctx := range detector.Contexts() {
			unrestricted := ctx == detector.Unrestricted
			defs := genHorizonDefs(rand.New(rand.NewSource(trial*10+int64(ctx))), types, 4, unrestricted)
			events := 300
			if unrestricted {
				events = 150 // nothing is consumed; keep the pairings small
			}
			for _, netName := range []string{"jitter", "lossy"} {
				base := horizonRun{defs: defs, ctx: ctx, net: nets[netName], seed: trial + 3, events: events}
				off := base
				off.off = true
				ref := runHorizon(t, off)
				if ref.reclaimed != 0 {
					t.Fatalf("off arm reclaimed %d entries", ref.reclaimed)
				}
				for _, workers := range []int{0, 4} {
					for _, noPool := range []bool{false, true} {
						on := base
						on.workers, on.noPool = workers, noPool
						got := runHorizon(t, on)
						if !bytes.Equal(got.log, ref.log) {
							t.Fatalf("trial %d %s %s workers=%d noPool=%v: horizon changed the eventlog (%d vs %d bytes)",
								trial, ctx, netName, workers, noPool, len(got.log), len(ref.log))
						}
						reclaimed += got.reclaimed
					}
				}
				if !unrestricted {
					continue
				}
				h := denote.NewHistory(ref.history)
				for _, d := range defs {
					var want []string
					for _, det := range d.oracle(h) {
						want = append(want, denote.Key(det))
					}
					sort.Strings(want)
					oracled += len(want)
					if fmt.Sprint(want) != fmt.Sprint(ref.keys[d.name]) {
						t.Fatalf("trial %d %s %s: %s = %q diverges from denote: engine %d detections, oracle %d",
							trial, netName, d.name, d.name, d.expr, len(ref.keys[d.name]), len(want))
					}
				}
			}
		}
	}
	if reclaimed == 0 || oracled == 0 {
		t.Fatalf("vacuous property: reclaimed %d entries, %d oracle detections", reclaimed, oracled)
	}
}

// guardCrashScenario runs the distsim Guard definition through a crash:
// site s03 dies a third of the way into the stream (its later raises are
// skipped), the rest keep raising while the watermark stalls, and the
// operator decommissions it halfway.  It returns the eventlog and the
// system for inspection.
func guardCrashScenario(t *testing.T, workers int, noPool, off bool) ([]byte, *System) {
	t.Helper()
	sys := MustNewSystem(Config{
		Net:            network.Config{BaseLatency: 20, Jitter: 60, DropRate: 0.05, RetransmitDelay: 80, Seed: 11},
		Pipeline:       pipeline.Config{Workers: workers},
		DisablePooling: noPool,
	})
	ids := workload.SiteIDs(4)
	for i, id := range ids {
		sys.MustAddSite(id, int64(i*17%41)-20, int64(i%3))
	}
	types := []string{"A", "B", "C", "D"}
	for _, typ := range types {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	log := eventlog.NewWriter(&buf)
	for _, d := range []struct{ name, expr string }{{"Guard", "NOT(C)[A, D]"}, {"Seq", "A ; B"}} {
		if _, err := sys.DefineAt(ids[0], d.name, d.expr, detector.Chronicle); err != nil {
			t.Fatal(err)
		}
		if err := sys.Subscribe(d.name, func(o *event.Occurrence) {
			if err := log.Append(o); err != nil {
				t.Errorf("log append: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Roster()
	if off {
		disableHorizon(sys)
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: types, MeanGap: 50, Count: 1200, Seed: 17,
	})
	crashAt, decommissionAt := len(trace.Items)/3, len(trace.Items)/2
	for i, item := range trace.Items {
		sys.Run(item.At, 50)
		switch i {
		case crashAt:
			if err := sys.Crash(ids[3]); err != nil {
				t.Fatal(err)
			}
		case decommissionAt:
			if err := sys.Decommission(ids[3]); err != nil {
				t.Fatal(err)
			}
		}
		if i >= crashAt && item.Site == ids[3] {
			continue
		}
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, nil)
	}
	if err := sys.Settle(50_000); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys
}

// TestHorizonGuardCrashDecommission pins the Guard crash scenario to the
// detections the engine produced before horizon reclamation existed, for
// every worker count and pooling mode, with the horizon on and off.  With
// it on, reclamation must keep working past the decommission — once the
// dead site's in-flight stream has drained — so the Guard host ends with
// a fraction of the state the off arm accumulates.
func TestHorizonGuardCrashDecommission(t *testing.T) {
	const (
		wantBytes  = 30480
		wantDigest = "1aca452a7d584d2acd09e72f49b035291090bc7fbf033e181279f29f0f733f50"
	)
	for _, workers := range []int{0, 4} {
		for _, noPool := range []bool{false, true} {
			var state [2]int
			for i, off := range []bool{false, true} {
				log, sys := guardCrashScenario(t, workers, noPool, off)
				if digest := fmt.Sprintf("%x", sha256.Sum256(log)); len(log) != wantBytes || digest != wantDigest {
					t.Fatalf("workers=%d noPool=%v off=%v: eventlog %d bytes sha256 %s, want %d bytes %s",
						workers, noPool, off, len(log), digest, wantBytes, wantDigest)
				}
				if got := reclaimedTotal(sys); off != (got == 0) {
					t.Fatalf("workers=%d noPool=%v off=%v: reclaimed %d", workers, noPool, off, got)
				}
				if sys.draining != 0 {
					t.Fatalf("decommissioned stream never drained: %d pairs pending", sys.draining)
				}
				state[i] = sys.sites[0].det.StateSize()
			}
			if on, off := state[0], state[1]; 4*on > off {
				t.Fatalf("workers=%d noPool=%v: Guard host state %d with the horizon vs %d without; reclamation stalled",
					workers, noPool, on, off)
			}
		}
	}
}

// TestHierarchicalSinkGetsNoHorizon: a site receiving forwarded
// composites is never handed a horizon; every other site is.
func TestHierarchicalSinkGetsNoHorizon(t *testing.T) {
	sys := MustNewSystem(Config{})
	for _, id := range []core.SiteID{"a", "b", "c"} {
		sys.MustAddSite(id, 0, 0)
	}
	for _, typ := range []string{"A", "B", "C"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []struct {
		host       core.SiteID
		name, expr string
	}{{"a", "Seq", "A ; B"}, {"a", "Local", "Seq AND C"}, {"b", "Pair", "Seq AND C"}} {
		if _, err := sys.DefineAt(d.host, d.name, d.expr, detector.Chronicle); err != nil {
			t.Fatal(err)
		}
	}
	sys.Roster()
	for id, want := range map[core.SiteID]bool{"a": true, "b": false, "c": true} {
		if got := sys.Site(id).reclaims; got != want {
			t.Errorf("site %s reclaims = %v, want %v", id, got, want)
		}
	}
}

// TestHorizonWaitsForDecommissionedStream: a decommissioned source stops
// gating release at once, but it bounds the horizon by its frontier until
// every message it sent has been consumed in order — an event still in
// flight could otherwise arrive below a horizon already handed out.
func TestHorizonWaitsForDecommissionedStream(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "hub", "z"})
	a, hub, z := roster.MustSite("a"), roster.MustSite("hub"), roster.MustSite("z")
	bus := network.NewBus(network.Config{})
	bus.SetRoster(roster)
	r := newReorderer(roster)
	if _, ok := r.horizon(); ok {
		t.Fatalf("horizon before any frontier is known")
	}
	r.setFrontier(hub, 50)
	r.setFrontier(z, 50)
	bus.SendBatchSite(0, a, hub, nil, 1, 0)
	bus.SendBatchSite(0, a, hub, nil, 1, 0)
	if err := r.accept(a, 1, envelope{Kind: envHeartbeat, Global: 12}); err != nil {
		t.Fatal(err)
	}
	if h, ok := r.horizon(); !ok || h != 12 {
		t.Fatalf("horizon = %d,%v, want 12", h, ok)
	}
	r.exclude(a)
	if got := r.minFrontier(); got != 50 {
		t.Fatalf("excluded source still gates release: min frontier %d", got)
	}
	if n := r.settleDrain(hub, bus); n != 0 {
		t.Fatalf("retired a source with message 2 still in flight")
	}
	if h, ok := r.horizon(); !ok || h != 12 {
		t.Fatalf("horizon with a draining source = %d,%v, want 12", h, ok)
	}
	if err := r.accept(a, 2, envelope{Kind: envHeartbeat, Global: 13}); err != nil {
		t.Fatal(err)
	}
	if n := r.settleDrain(hub, bus); n != 1 {
		t.Fatalf("drained source not retired")
	}
	if h, ok := r.horizon(); !ok || h != 50 {
		t.Fatalf("horizon after drain = %d,%v, want 50", h, ok)
	}
	r.exclude(hub)
	r.exclude(z)
	if _, ok := r.horizon(); ok {
		t.Fatalf("horizon with nothing left gating")
	}
}
