// Benchmark harness: one benchmark per artifact of the paper's evaluation
// (figures, worked example, counterexample, ordering ablation) plus the
// engine-level measurements DESIGN.md section 5 calls out.  EXPERIMENTS.md
// records the measured shapes against the paper's claims.
//
// Run with: go test -bench=. -benchmem .
package sentinel_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/viz"
	"repro/internal/wire"
	"repro/internal/workload"
)

// --- FIG1: open/closed interval evaluation -------------------------------

func BenchmarkFig1OpenClosedIntervals(b *testing.B) {
	a := core.Stamp{Site: "site-a", Global: 10, Local: 100}
	c := core.Stamp{Site: "site-b", Global: 16, Local: 160}
	probes := make([]core.Stamp, 64)
	for i := range probes {
		g := int64(i % 20)
		probes[i] = core.Stamp{Site: "p", Global: g, Local: g*10 + 5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		if p.InOpen(a, c) {
			n++
		}
		if p.InClosed(a, c) {
			n++
		}
	}
	sinkInt = n
}

// --- FIG2: grid region classification ------------------------------------

func BenchmarkFig2RegionClassification(b *testing.B) {
	e := core.PaperFigure2Stamp()
	sites := []core.SiteID{"Site1", "Site2", "Site3", "Site4", "Site5", "Site6", "Site7", "Site8"}
	cells := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sites {
			for g := int64(2); g <= 14; g++ {
				_ = viz.ClassifyCell(e, s, g, 10)
				cells++
			}
		}
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// --- EX51: the Section 5.1 worked example ---------------------------------

func BenchmarkSec51Example(b *testing.B) {
	ts := core.PaperSection51Stamps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ts[0].Relate(ts[1]) != core.SetIncomparable ||
			ts[1].Relate(ts[2]) != core.SetIncomparable ||
			ts[3].Relate(ts[2]) != core.SetConcurrent ||
			ts[2].Relate(ts[4]) != core.SetBefore {
			b.Fatalf("paper relations no longer hold")
		}
	}
}

// --- CEX: transitivity-witness search for the ∃∃ ordering -----------------

func BenchmarkCounterexampleSearch(b *testing.B) {
	// One op sweeps a fixed seed set, so the measured work — and
	// allocs/op in particular — is identical at any b.N.  Seeding by the
	// raw iteration index made allocs/op a function of the iteration
	// count (different seeds search different distances before finding a
	// witness or exhausting the trial cap), which let the bench-smoke
	// allocs budget drift against the 200ms archived baseline.
	const seeds = 4
	b.ReportAllocs()
	found := 0
	for i := 0; i < b.N; i++ {
		for s := int64(0); s < seeds; s++ {
			r := rand.New(rand.NewSource(s))
			gen := core.Generator(r, 4, 4, 10, 400)
			if w := core.FindNonTransitiveTriple(core.LessExistsExists, gen, 5_000); w != nil {
				found++
			}
		}
	}
	b.ReportMetric(float64(found)/float64(b.N*seeds), "witness-rate")
}

// --- ALT: comparability of the candidate orderings ------------------------

func BenchmarkOrderingComparabilityRate(b *testing.B) {
	for _, ord := range core.Orderings() {
		if !ord.Valid {
			continue
		}
		ord := ord
		b.Run(ord.Name, func(b *testing.B) {
			r := rand.New(rand.NewSource(17))
			gen := core.Generator(r, 6, 4, 10, 2000)
			pairs := make([][2]core.SetStamp, 1024)
			for i := range pairs {
				pairs[i] = [2]core.SetStamp{gen(), gen()}
			}
			comparable := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if ord.Less(p[0], p[1]) || ord.Less(p[1], p[0]) {
					comparable++
				}
			}
			b.ReportMetric(float64(comparable)/float64(b.N), "comparable/pair")
		})
	}
}

// --- Relation and Max cost vs set size (ablation: set stamps price) -------

func BenchmarkRelationCostVsSetSize(b *testing.B) {
	for _, comps := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("components=%d", comps), func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			gen := core.Generator(r, comps+1, comps, 10, 4000)
			pairs := make([][2]core.SetStamp, 512)
			for i := range pairs {
				pairs[i] = [2]core.SetStamp{gen(), gen()}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if p[0].Less(p[1]) {
					sinkInt++
				}
			}
		})
	}
}

func BenchmarkMaxCostVsSetSize(b *testing.B) {
	for _, comps := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("components=%d", comps), func(b *testing.B) {
			r := rand.New(rand.NewSource(4))
			gen := core.Generator(r, comps+1, comps, 10, 4000)
			pairs := make([][2]core.SetStamp, 512)
			for i := range pairs {
				pairs[i] = [2]core.SetStamp{gen(), gen()}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sinkSet = core.Max(p[0], p[1])
			}
		})
	}
}

// --- ALG: the set-stamp algebra, operation by operation --------------------

// BenchmarkSetStampAlgebra prices each core operation of the composite
// timestamp algebra in isolation across the Theorem 5.1 size range
// (|T(e)| ≤ #sites).  MaxInto is the scratch-reuse variant the detection
// hot path leans on; its allocs/op should read 0 once the scratch warms.
func BenchmarkSetStampAlgebra(b *testing.B) {
	for _, comps := range []int{1, 2, 4, 8, 16} {
		comps := comps
		r := rand.New(rand.NewSource(int64(100 + comps)))
		gen := core.Generator(r, comps+1, comps, 10, 4000)
		pairs := make([][2]core.SetStamp, 512)
		for i := range pairs {
			pairs[i] = [2]core.SetStamp{gen(), gen()}
		}
		b.Run(fmt.Sprintf("Max/components=%d", comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sinkSet = core.Max(p[0], p[1])
			}
		})
		b.Run(fmt.Sprintf("MaxInto/components=%d", comps), func(b *testing.B) {
			scratch := make(core.SetStamp, 0, 2*comps)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				scratch = core.MaxInto(scratch, p[0], p[1])
			}
			sinkSet = scratch
		})
		b.Run(fmt.Sprintf("Less/components=%d", comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if p[0].Less(p[1]) {
					sinkInt++
				}
			}
		})
		b.Run(fmt.Sprintf("ConcurrentWith/components=%d", comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if p[0].ConcurrentWith(p[1]) {
					sinkInt++
				}
			}
		})
	}
}

// --- SEM-C: centralized operator throughput by operator and context -------

// centralizedEngine builds a single-site detector for one definition and
// returns a publish function cycling through the given steady-state
// pattern (a pattern whose detections consume what they buffer, so the
// measurement is throughput, not buffer-scan growth).
func centralizedEngine(b *testing.B, expression string, ctx detector.Context, pattern []string) (*detector.Detector, func(i int)) {
	b.Helper()
	reg := event.NewRegistry()
	for _, n := range []string{"A", "B", "C"} {
		reg.MustDeclare(n, event.Explicit)
	}
	d := detector.New("s1", reg, nil)
	if _, err := d.DefineString("X", expression, ctx); err != nil {
		b.Fatal(err)
	}
	d.Subscribe("X", func(*event.Occurrence) { sinkInt++ })
	publish := func(i int) {
		local := int64(i) * 25 // one granule apart: totally ordered
		d.Publish(event.NewPrimitive(pattern[i%len(pattern)], event.Explicit,
			core.DeriveStamp("s1", local, 10), nil))
	}
	return d, publish
}

func BenchmarkCentralizedOperators(b *testing.B) {
	ops := []struct {
		name, expr string
		pattern    []string
	}{
		{"OR", "A OR B", []string{"A", "B"}},
		{"AND", "A AND B", []string{"A", "B"}},
		{"SEQ", "A ; B", []string{"A", "B"}},
		{"ANY2of3", "ANY(2, A, B, C)", []string{"A", "B", "C"}},
		// NOT's pattern has no spoiler: in the partial order a spoiled
		// initiator can still pair with a terminator concurrent with the
		// spoiler, so spoiled initiators are retained and a spoiler-heavy
		// pattern measures buffer growth, not throughput.
		{"NOT", "NOT(B)[A, C]", []string{"A", "C"}},
		{"A-op", "A(A, B, C)", []string{"A", "B", "C"}},
		{"Astar", "A*(A, B, C)", []string{"A", "B", "B", "C"}},
	}
	for _, op := range ops {
		op := op
		b.Run(op.name, func(b *testing.B) {
			_, publish := centralizedEngine(b, op.expr, detector.Chronicle, op.pattern)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish(i)
			}
		})
	}
}

func BenchmarkParameterContexts(b *testing.B) {
	for _, ctx := range detector.Contexts() {
		ctx := ctx
		b.Run(ctx.String(), func(b *testing.B) {
			// Unrestricted retains every initiator, so the engine is
			// recreated every chunk to keep memory bounded — the chunk
			// size is part of the measured cost, as it would be in
			// production (periodic state truncation).
			const chunk = 4096
			_, publish := centralizedEngine(b, "A ; B", ctx, []string{"A", "B"})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 && ctx == detector.Unrestricted {
					b.StopTimer()
					_, publish = centralizedEngine(b, "A ; B", ctx, []string{"A", "B"})
					b.StartTimer()
				}
				publish(i)
			}
		})
	}
}

// --- SEM-D / E2E: distributed detection end to end ------------------------

func runDistributed(b *testing.B, sites int, net network.Config, events int, mutate ...func(*ddetect.Config)) ddetect.Stats {
	b.Helper()
	cfg := ddetect.Config{Net: net}
	for _, m := range mutate {
		m(&cfg)
	}
	sys := ddetect.MustNewSystem(cfg)
	rng := rand.New(rand.NewSource(1))
	ids := make([]core.SiteID, sites)
	for i := range ids {
		ids[i] = core.SiteID(fmt.Sprintf("s%02d", i))
		sys.MustAddSite(ids[i], rng.Int63n(61)-30, 0)
	}
	for _, typ := range []string{"A", "B", "C", "D"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			b.Fatal(err)
		}
	}
	for _, def := range []struct{ name, expr string }{
		{"Seq", "A ; B"}, {"Conj", "C AND D"}, {"Guard", "NOT(C)[A, D]"},
	} {
		if _, err := sys.DefineAt(ids[0], def.name, def.expr, detector.Chronicle); err != nil {
			b.Fatal(err)
		}
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: []string{"A", "B", "C", "D"}, MeanGap: 60, Count: events, Seed: 2,
		OmitParams: true, // raised with nil params below; keep the schedule allocation-flat
	})
	for _, item := range trace.Items {
		sys.Run(item.At, 100)
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, nil)
	}
	if err := sys.Settle(10_000); err != nil {
		b.Fatal(err)
	}
	return sys.Stats()
}

func BenchmarkEndToEndDetection(b *testing.B) {
	for _, sites := range []int{2, 4, 8, 16} {
		sites := sites
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			net := network.Config{BaseLatency: 20, Jitter: 40, Seed: 9}
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = runDistributed(b, sites, net, 600)
			}
			b.ReportMetric(float64(st.Detections), "detections")
			b.ReportMetric(st.MeanLatency(), "latency-microticks")
			// Transport coalescing: bus messages per run and the
			// envelopes-per-message ratio (PR-4 acceptance: ≥5× fewer
			// messages at 16 sites than one-message-per-envelope).
			b.ReportMetric(float64(st.Net.Sent), "bus-msgs")
			if st.Net.Sent > 0 {
				b.ReportMetric(float64(st.Net.Envelopes)/float64(st.Net.Sent), "envs/msg")
			}
		})
	}
}

// --- SUSTAINED: events/sec throughput gate ---------------------------------

// BenchmarkSustainedThroughput is the PR-8 throughput gate: a fixed
// 8-site × 8-definition topology where every definition is hosted at the
// site that raises its constituents, so the steady state exercises the
// pooled occurrence lifecycle end to end — GetPrimitive at raise,
// self-delivery, Chronicle pairing, pooled composite emission, recycle —
// with no transport in the loop.  The benchmark body is the sustained
// steady state itself (the system is built once, outside the timer), and
// the reported events/sec is raised primitives over wall time.  make ci
// holds the floor at 1e6 events/sec via benchjson -min-metric, and the
// pool-hit-rate metric pins that the loop actually runs on recycled
// occurrences (≈1.0 after warmup) rather than the allocator.
func BenchmarkSustainedThroughput(b *testing.B) {
	runSustained(b)
}

// BenchmarkSustainedThroughputTraced is the same sustained loop with the
// always-on observability posture attached: a real span sink (discarded
// writes) head-sampled at 1%, plus the metrics registry.  It emits the
// same events/sec and pool-hit-rate metrics, so the bench-smoke floors —
// 1M events/sec, hit-rate ≥0.95 — gate the traced pipeline too: the
// generation-keyed span identity must not cost the pooling win.
func BenchmarkSustainedThroughputTraced(b *testing.B) {
	runSustained(b, func(c *ddetect.Config) {
		c.Trace = obs.NewTracer(obs.NewSpanLog(io.Discard))
		c.Sample = obs.NewSampler(1, 0.01)
	})
}

func runSustained(b *testing.B, mutate ...func(*ddetect.Config)) {
	const sites = 8
	cfg := ddetect.Config{}
	for _, m := range mutate {
		m(&cfg)
	}
	sys := ddetect.MustNewSystem(cfg)
	ids := workload.SiteIDs(sites)
	for _, id := range ids {
		sys.MustAddSite(id, 0, 0)
	}
	for i := 0; i < sites; i++ {
		for _, pre := range []string{"A", "B"} {
			if err := sys.Declare(fmt.Sprintf("%s%02d", pre, i), event.Explicit); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < sites; i++ {
		expr := fmt.Sprintf("A%02d ; B%02d", i, i)
		if _, err := sys.DefineAt(ids[i], fmt.Sprintf("P%02d", i), expr, detector.Chronicle); err != nil {
			b.Fatal(err)
		}
	}
	aTypes := make([]string, sites)
	bTypes := make([]string, sites)
	for i := 0; i < sites; i++ {
		aTypes[i] = fmt.Sprintf("A%02d", i)
		bTypes[i] = fmt.Sprintf("B%02d", i)
	}
	// Eight same-instant raises per site per instant: same-site occurrences
	// at one instant stay distinct through the local sequence counter, and
	// Chronicle pairs each terminator with the oldest unconsumed initiator,
	// so all eight pairs detect.  Batching amortizes the fixed per-Step
	// pipeline walk across 64 raised events per instant.
	const perInstant = 8
	iter := func() {
		// Two instants per iteration so the sequence's initiator strictly
		// precedes its terminator; one granule apart keeps the virtual
		// clock cheap to advance.
		for s, id := range ids {
			site := sys.Site(id)
			for k := 0; k < perInstant; k++ {
				site.MustRaise(aTypes[s], event.Explicit, nil)
			}
		}
		sys.Step(100)
		for s, id := range ids {
			site := sys.Site(id)
			for k := 0; k < perInstant; k++ {
				site.MustRaise(bTypes[s], event.Explicit, nil)
			}
		}
		sys.Step(100)
	}
	// Warm-up iterations outside the timer fill the pool and grow the
	// engine's internal buffers to steady state, so the measured region
	// is the sustained regime the gate is about — without them the
	// ramp-up allocations dominate allocs/op at the bench-smoke target's
	// small fixed -benchtime=100x.
	for i := 0; i < 64; i++ {
		iter()
	}
	st0, ps0 := sys.Stats(), sys.PoolStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
	st := sys.Stats()
	ps := sys.PoolStats()
	b.ReportMetric(float64(st.Raised-st0.Raised)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(st.Detections-st0.Detections), "detections")
	if gets := ps.Gets - ps0.Gets; gets > 0 {
		b.ReportMetric(1-float64(ps.Misses-ps0.Misses)/float64(gets), "pool-hit-rate")
	}
}

// --- SCALE: membership sweep on the dense roster-indexed pipeline ----------

// BenchmarkScaleSites is the PR-6 deliverable curve: end-to-end runs from
// 16 to 2048 sites in serialize mode, so bytes-on-wire is the real frame
// size under the roster codec (dense site indexes, delta frontiers).  The
// event count is fixed — the sweep varies membership, i.e. roster width,
// frontier-vector length and heartbeat fan-in, not offered load.
func BenchmarkScaleSites(b *testing.B) {
	for _, sites := range []int{16, 64, 256, 1024, 2048} {
		sites := sites
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = runScaleSites(b, sites, 400)
			}
			b.ReportMetric(float64(st.Detections), "detections")
			b.ReportMetric(float64(st.Net.Sent), "bus-msgs")
			b.ReportMetric(float64(st.Net.PayloadBytes), "bytes-on-wire")
			if st.Net.Sent > 0 {
				b.ReportMetric(float64(st.Net.PayloadBytes)/float64(st.Net.Sent), "bytes/msg")
			}
		})
	}
}

// runScaleSites is runDistributed's membership-sweep variant: zero-padded
// roster-ordered site IDs (lexical order == roster index order at any
// width) and serialized transport, so the wire codec's dense encoding is
// on the measured path.
func runScaleSites(b *testing.B, sites, events int) ddetect.Stats {
	b.Helper()
	cfg := ddetect.Config{
		Net:       network.Config{BaseLatency: 20, Jitter: 40, Seed: 9},
		Serialize: true,
	}
	sys := ddetect.MustNewSystem(cfg)
	rng := rand.New(rand.NewSource(1))
	ids := workload.SiteIDs(sites)
	for _, id := range ids {
		sys.MustAddSite(id, rng.Int63n(61)-30, 0)
	}
	for _, typ := range []string{"A", "B", "C", "D"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			b.Fatal(err)
		}
	}
	for _, def := range []struct{ name, expr string }{
		{"Seq", "A ; B"}, {"Conj", "C AND D"}, {"Guard", "NOT(C)[A, D]"},
	} {
		if _, err := sys.DefineAt(ids[0], def.name, def.expr, detector.Chronicle); err != nil {
			b.Fatal(err)
		}
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: []string{"A", "B", "C", "D"}, MeanGap: 60, Count: events, Seed: 2,
		OmitParams: true, // raised with nil params below; keep the schedule allocation-flat
	})
	for _, item := range trace.Items {
		sys.Run(item.At, 100)
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, nil)
	}
	if err := sys.Settle(10_000); err != nil {
		b.Fatal(err)
	}
	return sys.Stats()
}

func BenchmarkNetworkAdversity(b *testing.B) {
	cases := []struct {
		name string
		net  network.Config
	}{
		{"perfect", network.Config{}},
		{"latency", network.Config{BaseLatency: 50}},
		{"jitter", network.Config{BaseLatency: 20, Jitter: 150, Seed: 5}},
		{"lossy", network.Config{BaseLatency: 20, Jitter: 50, DropRate: 0.1, RetransmitDelay: 200, Seed: 5}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = runDistributed(b, 4, c.net, 600)
			}
			b.ReportMetric(float64(st.Detections), "detections")
			b.ReportMetric(st.MeanLatency(), "latency-microticks")
		})
	}
}

// --- TSSIZE: composite timestamp set size vs fan-in ------------------------

func BenchmarkTimestampSetSize(b *testing.B) {
	for _, sites := range []int{2, 4, 8, 16} {
		sites := sites
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			// One burst of concurrent stamps per iteration: MaxAll keeps
			// them all (Theorem 5.1 bound: |T(e)| ≤ #sites).
			stamps := make([]core.SetStamp, sites)
			totalSize := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := int64(i) * 1000
				for s := 0; s < sites; s++ {
					stamps[s] = core.Singleton(core.DeriveStamp(
						core.SiteID(fmt.Sprintf("s%02d", s)), base+int64(s)%10, 10))
				}
				m := core.MaxAll(stamps...)
				totalSize += len(m)
				if len(m) > sites {
					b.Fatalf("Theorem 5.1 bound violated: %d > %d", len(m), sites)
				}
			}
			b.ReportMetric(float64(totalSize)/float64(b.N), "set-size")
		})
	}
}

// --- Ablation: set timestamps vs scalar (max-global) timestamps ------------

// scalarLess is the naive centralized-style comparison a scalar-timestamp
// engine would use: compare max globals only.
func scalarLess(a, b core.SetStamp) bool { return a.MaxGlobal() < b.MaxGlobal() }

func BenchmarkMaxSetVsScalarTimestamps(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	gen := core.Generator(r, 6, 4, 10, 2000)
	pairs := make([][2]core.SetStamp, 2048)
	disagreements := 0
	for i := range pairs {
		pairs[i] = [2]core.SetStamp{gen(), gen()}
		if pairs[i][0].Less(pairs[i][1]) != scalarLess(pairs[i][0], pairs[i][1]) {
			disagreements++
		}
	}
	b.Run("set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if p[0].Less(p[1]) {
				sinkInt++
			}
		}
		b.ReportMetric(float64(disagreements)/float64(len(pairs)), "scalar-divergence")
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if scalarLess(p[0], p[1]) {
				sinkInt++
			}
		}
		b.ReportMetric(float64(disagreements)/float64(len(pairs)), "scalar-divergence")
	})
	if disagreements == 0 {
		b.Fatalf("expected the scalar shortcut to disagree with the paper's order on some pairs")
	}
}

// --- Ablation: granularity ratio g_g/Π vs concurrency ----------------------

func BenchmarkGranularitySweep(b *testing.B) {
	// Larger g_g (relative to the event spread) coarsens global time:
	// more pairs become concurrent and composite stamps grow.
	for _, ratio := range []int64{2, 10, 50, 250} {
		ratio := ratio
		b.Run(fmt.Sprintf("localPerGlobal=%d", ratio), func(b *testing.B) {
			// Pairs of events ~150 local ticks apart at distinct sites:
			// whether they are ordered or concurrent depends on how the
			// granularity buckets them.
			r := rand.New(rand.NewSource(11))
			type pair struct{ a, b core.Stamp }
			pairs := make([]pair, 1024)
			for i := range pairs {
				base := r.Int63n(1_000_000)
				gap := 50 + r.Int63n(200)
				pairs[i] = pair{
					a: core.DeriveStamp("s1", base, ratio),
					b: core.DeriveStamp("s2", base+gap, ratio),
				}
			}
			concurrent := 0
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				total++
				if p.a.Concurrent(p.b) {
					concurrent++
				}
			}
			b.ReportMetric(float64(concurrent)/float64(total), "concurrent/pair")
		})
	}
}

// --- Detector scaling: throughput vs number of definitions -----------------

func BenchmarkDetectorVsRuleCount(b *testing.B) {
	for _, nDefs := range []int{1, 4, 16, 64} {
		nDefs := nDefs
		b.Run(fmt.Sprintf("defs=%d", nDefs), func(b *testing.B) {
			reg := event.NewRegistry()
			for _, n := range []string{"A", "B"} {
				reg.MustDeclare(n, event.Explicit)
			}
			d := detector.New("s1", reg, nil)
			for i := 0; i < nDefs; i++ {
				if _, err := d.DefineString(fmt.Sprintf("X%d", i), "A ; B", detector.Chronicle); err != nil {
					b.Fatal(err)
				}
			}
			types := [2]string{"A", "B"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				local := int64(i) * 25
				d.Publish(event.NewPrimitive(types[i%2], event.Explicit,
					core.DeriveStamp("s1", local, 10), nil))
			}
		})
	}
}

// --- Heartbeat cadence vs detection latency --------------------------------

func BenchmarkHeartbeatCadence(b *testing.B) {
	for _, hb := range []clock.Microticks{50, 100, 400, 1600} {
		hb := hb
		b.Run(fmt.Sprintf("every=%d", hb), func(b *testing.B) {
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := ddetect.MustNewSystem(ddetect.Config{
					Net:            network.Config{BaseLatency: 20},
					HeartbeatEvery: hb,
				})
				a := sys.MustAddSite("a", 0, 0)
				sys.MustAddSite("hub", 0, 0)
				if err := sys.Declare("A", event.Explicit); err != nil {
					b.Fatal(err)
				}
				if err := sys.Declare("B", event.Explicit); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 50; j++ {
					a.MustRaise("A", event.Explicit, nil)
					sys.Run(sys.Now()+300, 50)
					a.MustRaise("B", event.Explicit, nil)
					sys.Run(sys.Now()+300, 50)
				}
				if err := sys.Settle(10_000); err != nil {
					b.Fatal(err)
				}
				st = sys.Stats()
			}
			b.ReportMetric(st.MeanLatency(), "latency-microticks")
			b.ReportMetric(float64(st.Detections), "detections")
		})
	}
}

// --- Wire codec and serialization overhead ---------------------------------

func BenchmarkWireCodec(b *testing.B) {
	a := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("s1", 100, 10),
		event.Params{"qty": int64(40), "sym": "IBM"})
	c := event.NewPrimitive("B", event.Explicit, core.DeriveStamp("s2", 105, 10), nil)
	comp := event.NewComposite("AB", "hub", a, c)
	env := wire.Envelope{Kind: wire.KindEvent, Occ: comp, RaisedAt: 5}
	buf, err := wire.Encode(env)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Encode(env); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "bytes/msg")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSerializeOverhead(b *testing.B) {
	for _, serialize := range []bool{false, true} {
		serialize := serialize
		name := "pointers"
		if serialize {
			name = "wire"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := ddetect.MustNewSystem(ddetect.Config{
					Net:       network.Config{BaseLatency: 20},
					Serialize: serialize,
				})
				a := sys.MustAddSite("a", 0, 0)
				sys.MustAddSite("hub", 0, 0)
				if err := sys.Declare("A", event.Explicit); err != nil {
					b.Fatal(err)
				}
				if err := sys.Declare("B", event.Explicit); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 100; j++ {
					a.MustRaise("A", event.Explicit, event.Params{"n": int64(j)})
					sys.Run(sys.Now()+250, 50)
					a.MustRaise("B", event.Explicit, nil)
					sys.Run(sys.Now()+250, 50)
				}
				if err := sys.Settle(10_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Release-mode ablation: total-order determinism vs extension latency ----

func BenchmarkReleaseModes(b *testing.B) {
	for _, mode := range []ddetect.ReleaseMode{ddetect.ReleaseTotalOrder, ddetect.ReleaseExtension} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := ddetect.MustNewSystem(ddetect.Config{
					Net:     network.Config{BaseLatency: 20, Jitter: 40, Seed: 3},
					Release: mode,
				})
				a := sys.MustAddSite("a", -20, 0)
				sys.MustAddSite("hub", 20, 0)
				if err := sys.Declare("A", event.Explicit); err != nil {
					b.Fatal(err)
				}
				if err := sys.Declare("B", event.Explicit); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 100; j++ {
					a.MustRaise("A", event.Explicit, nil)
					sys.Run(sys.Now()+250, 50)
					a.MustRaise("B", event.Explicit, nil)
					sys.Run(sys.Now()+250, 50)
				}
				if err := sys.Settle(10_000); err != nil {
					b.Fatal(err)
				}
				st = sys.Stats()
			}
			b.ReportMetric(st.MeanLatency(), "latency-microticks")
			b.ReportMetric(float64(st.Detections), "detections")
		})
	}
}

// --- Ablation: common-subexpression sharing ---------------------------------

func BenchmarkSubexpressionSharing(b *testing.B) {
	for _, sharing := range []bool{true, false} {
		sharing := sharing
		name := "shared"
		if !sharing {
			name = "unshared"
		}
		b.Run(name, func(b *testing.B) {
			reg := event.NewRegistry()
			for _, n := range []string{"A", "B", "C", "D"} {
				reg.MustDeclare(n, event.Explicit)
			}
			d := detector.New("s1", reg, nil)
			d.SetSharing(sharing)
			// Eight definitions all embedding the same (A ; B) subgraph.
			for i := 0; i < 8; i++ {
				term := []string{"C", "D"}[i%2]
				if _, err := d.DefineString(fmt.Sprintf("X%d", i), "(A ; B) ; "+term, detector.Chronicle); err != nil {
					b.Fatal(err)
				}
			}
			pattern := [4]string{"A", "B", "C", "D"}
			// Warm past the one-time growth of node buffers and the delivery
			// heap so short -benchtime=100x smoke runs see steady state.
			const warm = 256
			for i := 0; i < warm; i++ {
				d.Publish(event.NewPrimitive(pattern[i%4], event.Explicit,
					core.DeriveStamp("s1", int64(i)*25, 10), nil))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				local := int64(warm+i) * 25
				d.Publish(event.NewPrimitive(pattern[i%4], event.Explicit,
					core.DeriveStamp("s1", local, 10), nil))
			}
			b.StopTimer()
			b.ReportMetric(float64(d.NodeCount()), "nodes")
		})
	}
}

// --- PIPE: staged pipeline, sequential vs parallel detect -------------------

// runPipelineWorkload drives a detect-heavy multi-definition deployment:
// `hosts` sites each hosting `defsPerHost` definitions over the same four
// primitive types, fed by a definition-free feeder site whose raises fan
// out to every host.  Events are raised in bursts between steps so the
// release stage hands each host's detect stage sizeable batches — the
// shape the parallel detect stage (Config.Pipeline.Workers) scales with
// cores on.
func runPipelineWorkload(b *testing.B, workers, hosts, defsPerHost, events int, mutate ...func(*ddetect.Config)) ddetect.Stats {
	b.Helper()
	cfg := ddetect.Config{
		Net:      network.Config{BaseLatency: 20, Jitter: 30, Seed: 7},
		Pipeline: pipeline.Config{Workers: workers},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	sys := ddetect.MustNewSystem(cfg)
	feeder := sys.MustAddSite("zz-feed", 0, 0)
	rng := rand.New(rand.NewSource(13))
	hostIDs := make([]core.SiteID, hosts)
	for i := range hostIDs {
		hostIDs[i] = core.SiteID(fmt.Sprintf("h%02d", i))
		sys.MustAddSite(hostIDs[i], rng.Int63n(41)-20, 0)
	}
	for _, typ := range []string{"A", "B", "C", "D"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			b.Fatal(err)
		}
	}
	exprs := []string{"A ; B", "C AND D", "ANY(2, A, B, C)", "NOT(C)[A, D]", "(A ; B) ; C"}
	for h, host := range hostIDs {
		for d := 0; d < defsPerHost; d++ {
			name := fmt.Sprintf("X%02d_%02d", h, d)
			if _, err := sys.DefineAt(host, name, exprs[d%len(exprs)], detector.Chronicle); err != nil {
				b.Fatal(err)
			}
		}
	}
	types := [4]string{"A", "B", "C", "D"}
	for i := 0; i < events; i++ {
		feeder.MustRaise(types[i%4], event.Explicit, nil)
		if i%8 == 7 {
			sys.Step(100) // burst of 8 raises per step: large release batches
		}
	}
	if err := sys.Settle(10_000); err != nil {
		b.Fatal(err)
	}
	return sys.Stats()
}

// BenchmarkPipelineWorkers is the multi-definition acceptance benchmark
// for the staged pipeline: identical workload under sequential
// (workers=0) and parallel (workers=GOMAXPROCS) detect.  On a multi-core
// box the parallel mode is faster; detections are asserted identical, so
// the comparison is apples to apples.
func BenchmarkPipelineWorkers(b *testing.B) {
	modes := []int{0, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var wantDetections float64 = -1
	for _, workers := range modes {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = runPipelineWorkload(b, workers, 8, 12, 640)
			}
			if wantDetections < 0 {
				wantDetections = float64(st.Detections)
			} else if float64(st.Detections) != wantDetections {
				b.Fatalf("workers=%d: %d detections, sequential had %.0f",
					workers, st.Detections, wantDetections)
			}
			b.ReportMetric(float64(st.Detections), "detections")
			var detectBusy float64
			for _, sg := range st.Stages {
				if sg.Name == "detect" {
					detectBusy = float64(sg.Busy.Nanoseconds()) / float64(sg.Ticks)
				}
			}
			b.ReportMetric(detectBusy, "detect-ns/tick")
		})
	}
}

// --- OBS: observability overhead ------------------------------------------

// detachedTracer arms tracing with no sink attached: every span point in
// the pipeline executes (the sample decision, the gate checks) but IDs
// are never assigned and nothing is written.  This isolates the cost of
// carrying the instrumentation hooks themselves.
func detachedTracer(c *ddetect.Config) { c.Trace = obs.NewTracer(nil) }

// sampledTracer is the always-on production posture this PR's overhead
// gate is about: a real sink (writes discarded, so the measurement is
// the tracer's own cost, not an encoder's) head-sampled at 1% under a
// fixed seed.  Pooling stays on — generation-stamped span identity
// composes with slot reuse, so the traced arm runs the same pooled hot
// path as the untraced one.
func sampledTracer(c *ddetect.Config) { sampledTracerAt(0.01)(c) }

// sampledTracerAt parameterizes the rate for the EXPERIMENTS.md overhead
// sweep (1% / 10% / 100% against untraced, all pooled).
func sampledTracerAt(rate float64) func(*ddetect.Config) {
	return func(c *ddetect.Config) {
		c.Trace = obs.NewTracer(obs.NewSpanLog(io.Discard))
		c.Sample = obs.NewSampler(7, rate)
	}
}

// noPooling pins the occurrence pool off — the determinism differential
// mode.  Since the generation-keyed span identity landed, tracing no
// longer implies this: overhead comparisons run both arms pooled.
func noPooling(c *ddetect.Config) { c.DisablePooling = true }

// BenchmarkTraceOverhead measures the end-to-end 16-site detection run —
// pooled in every arm — with tracing off, enabled-but-unsunk, and the
// 1%-sampled production posture.  Full-stack cost with heavyweight sinks
// (Chrome trace, flight recorder) is workload-dependent and reported by
// distsim instead.
func BenchmarkTraceOverhead(b *testing.B) {
	net := network.Config{BaseLatency: 20, Jitter: 40, Seed: 9}
	modes := []struct {
		name   string
		mutate []func(*ddetect.Config)
	}{
		{"off", nil},
		{"detached", []func(*ddetect.Config){detachedTracer}},
		{"sampled1pct", []func(*ddetect.Config){sampledTracer}},
		{"sampled10pct", []func(*ddetect.Config){sampledTracerAt(0.10)}},
		{"sampled100pct", []func(*ddetect.Config){sampledTracerAt(1.0)}},
		// The unpooled traced arm sizes what the deleted tracer/pooling
		// interlock used to cost: its delta against sampled1pct is the
		// pooling win the old behavior gave up whenever a tracer attached.
		{"sampled1pct-nopool", []func(*ddetect.Config){sampledTracer, noPooling}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var st ddetect.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = runDistributed(b, 16, net, 600, mode.mutate...)
			}
			b.ReportMetric(float64(st.Detections), "detections")
		})
	}
}

// TestTraceOverheadSmoke is the CI guard for the always-on tracing cost:
// a real-sink tracer at 1% head sampling must not regress the pooled
// pipeline-workers workload by more than 3% comparing the minima of
// interleaved measurements.
// (Earlier PRs compared an unsunk tracer against an *unpooled* baseline
// under an 8% budget, because an attached tracer used to force pooling
// off.  Generation-keyed span identity removed that interlock, so both
// arms now run the production pooled path and the budget tightens to the
// sampled posture's real cost: the per-raise hash plus a 1% trickle of
// span writes.)
// Benchmark-grade timing in a test is noisy, so it only runs when asked:
//
//	SENTINEL_TRACE_OVERHEAD=1 go test -run TestTraceOverheadSmoke -v .
func TestTraceOverheadSmoke(t *testing.T) {
	if os.Getenv("SENTINEL_TRACE_OVERHEAD") == "" {
		t.Skip("set SENTINEL_TRACE_OVERHEAD=1 to run the trace-overhead smoke benchmark")
	}
	measure := func(mutate ...func(*ddetect.Config)) float64 {
		return float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPipelineWorkload(b, 0, 4, 6, 320, mutate...)
			}
		}).NsPerOp())
	}
	const rounds = 5
	off := make([]float64, 0, rounds)
	traced := make([]float64, 0, rounds)
	measure()                     // warm-up discarded
	for i := 0; i < rounds; i++ { // interleave so drift hits both arms
		off = append(off, measure())
		traced = append(traced, measure(sampledTracer))
	}
	// Compare minima, not medians: scheduler and neighbor noise only
	// ever adds time, so the fastest of five interleaved rounds is the
	// closest each arm gets to its true cost on a shared machine.
	minOf := func(v []float64) float64 {
		sort.Float64s(v)
		return v[0]
	}
	mOff, mTraced := minOf(off), minOf(traced)
	ratio := mTraced / mOff
	t.Logf("min ns/op: off=%.0f sampled-1%%-tracing=%.0f (%.1f%%)", mOff, mTraced, (ratio-1)*100)
	if ratio > 1.03 {
		t.Fatalf("1%%-sampled tracing costs %.1f%% (min of %d), budget is 3%%",
			(ratio-1)*100, rounds)
	}
}

// --- Multi-tenant scaling: dispatch cost vs definition count ----------------

// BenchmarkManyDefinitions pins the hash-consed compiler's claim in the
// 10k-definition regime: per-event dispatch cost tracks the number of
// definitions that *match* the event's type — held roughly constant here
// by scaling the alphabet with the definition count — not the total
// definition count, so defs=10000 ns/op stays within a small factor of
// defs=100.  The overlap knob sweeps tenancy overlap: at 90% most bodies
// embed one of 16 shared core subexpressions, which the interner
// collapses to single operator subgraphs (visible in the nodes metric).
// compile-ms records the one-time cost of defining the whole set; the
// 10k case must stay in the hundreds of milliseconds.
func BenchmarkManyDefinitions(b *testing.B) {
	for _, nDefs := range []int{100, 1000, 10000} {
		for _, overlap := range []float64{0, 0.5, 0.9} {
			nDefs, overlap := nDefs, overlap
			b.Run(fmt.Sprintf("defs=%d/overlap=%.0f%%", nDefs, overlap*100), func(b *testing.B) {
				p := nDefs / 8
				if p < 8 {
					p = 8
				}
				types := workload.TypeNames(p)
				reg := event.NewRegistry()
				for _, t := range types {
					reg.MustDeclare(t, event.Explicit)
				}
				defs := workload.GenDefs(workload.DefsConfig{
					Count: nDefs, Types: types, Overlap: overlap, Seed: 99,
				})
				d := detector.New("s1", reg, nil)
				// Pool composites the way a sealed production system does
				// (§2h): detections at 90% overlap come in phase bursts (one
				// shared subexpression completing fires every embedder), and
				// unpooled composite garbage would swamp the dispatch-cost
				// signal this benchmark gates.
				d.UsePool(event.NewPool(core.NewRoster([]core.SiteID{"s1"})))
				start := time.Now()
				for _, def := range defs {
					if _, err := d.DefineString(def.Name, def.Expr, detector.Chronicle); err != nil {
						b.Fatal(err)
					}
				}
				compile := time.Since(start)
				// Pre-resolve type IDs the way the ingest stage does, so the
				// loop measures the dense fast path an online system runs.
				ids := make([]event.TypeID, len(types))
				for i, t := range types {
					ids[i] = reg.TypeID(t)
				}
				publish := func(i int) {
					occ := event.NewPrimitive(types[i%p], event.Explicit,
						core.DeriveStamp("s1", int64(i)*25, 10), nil)
					occ.TypeID = ids[i%p]
					d.Publish(occ)
				}
				// Warm to steady state — node buffers, the delivery heap and
				// the finish queue grow to their working capacity over the
				// first alphabet cycles, and a 100x smoke run would otherwise
				// book that one-time growth as per-op allocation.  Each node
				// sees only every p-th event, so it takes several full cycles
				// for buffer capacities to stop doubling.
				warm := 10 * p
				if warm < 512 {
					warm = 512
				}
				for i := 0; i < warm; i++ {
					publish(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					publish(warm + i)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatch/sec")
				b.ReportMetric(float64(compile.Nanoseconds())/1e6, "compile-ms")
				b.ReportMetric(float64(d.NodeCount()), "nodes")
			})
		}
	}
}

// --- HORIZON: per-event cost as the run grows -------------------------------

// BenchmarkHorizon runs the distsim default — 8 sites, the four
// definitions Seq, Conj, Guard = NOT(C)[A, D] and Sweep = A*(A, B, C) in
// Chronicle at one host — at 1k, 8k and 64k events, each on a fresh
// system, and reports per size the wall-clock ns/event of the drive loop
// (raise, step, settle), the detect stage's busy ns/event, and the final
// detector state; plus the 64k run's pool hit-rate and growth-x, the
// 64k ÷ 1k ns/event ratio.  A cost per event that grows with history —
// the NOT node before release-horizon reclamation was cubic — shows up as
// growth-x ≫ 1, and because it is a ratio within one run it does not
// depend on machine speed: make bench-smoke gates it at ≤ 1.5.
func BenchmarkHorizon(b *testing.B) {
	sizes := []struct {
		n    int
		name string
	}{{1_000, "1k"}, {8_000, "8k"}, {64_000, "64k"}}
	runHorizonLadderStep(b, 1_000) // warm code paths and the allocator, untimed
	var elapsed, detect [3]time.Duration
	var state [3]int
	var pool event.PoolStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, sz := range sizes {
			r := runHorizonLadderStep(b, sz.n)
			elapsed[k] += r.elapsed
			detect[k] += r.detect
			state[k] = r.state
			pool = r.pool
		}
	}
	b.StopTimer()
	perEvent := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(b.N*n) }
	for k, sz := range sizes {
		b.ReportMetric(perEvent(elapsed[k], sz.n), "ns/event-"+sz.name)
		b.ReportMetric(perEvent(detect[k], sz.n), "detect-ns/event-"+sz.name)
		b.ReportMetric(float64(state[k]), "state-"+sz.name)
	}
	if pool.Gets > 0 {
		b.ReportMetric(1-float64(pool.Misses)/float64(pool.Gets), "pool-hit-rate")
	}
	b.ReportMetric(perEvent(elapsed[2], sizes[2].n)/perEvent(elapsed[0], sizes[0].n), "growth-x")
}

// horizonStep is one BenchmarkHorizon run's measurements.
type horizonStep struct {
	elapsed, detect time.Duration
	state           int
	pool            event.PoolStats
}

// runHorizonLadderStep builds the distsim default system (seed 42; setup
// untimed) and drives an events-long stream through it.
func runHorizonLadderStep(b *testing.B, events int) horizonStep {
	b.Helper()
	b.StopTimer()
	const seed = 42
	sys := ddetect.MustNewSystem(ddetect.Config{Net: network.Config{
		BaseLatency: 20, Jitter: 40, Seed: workload.SubSeed(seed, "net"),
	}})
	rng := rand.New(rand.NewSource(workload.SubSeed(seed, "topology")))
	ids := workload.SiteIDs(8)
	for _, id := range ids {
		sys.MustAddSite(id, rng.Int63n(61)-30, rng.Int63n(5))
	}
	types := []string{"A", "B", "C", "D"}
	for _, typ := range types {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range []struct{ name, expr string }{
		{"Seq", "A ; B"}, {"Conj", "C AND D"}, {"Guard", "NOT(C)[A, D]"}, {"Sweep", "A*(A, B, C)"},
	} {
		if _, err := sys.DefineAt(ids[0], d.name, d.expr, detector.Chronicle); err != nil {
			b.Fatal(err)
		}
	}
	sys.Roster()
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: types, MeanGap: 60, Count: events,
		Seed: workload.SubSeed(seed, "stream"), OmitParams: true,
	})
	b.StartTimer()
	start := time.Now()
	for _, item := range trace.Items {
		sys.Run(item.At, 50)
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, nil)
	}
	if err := sys.Settle(10_000); err != nil {
		b.Fatal(err)
	}
	r := horizonStep{elapsed: time.Since(start), pool: sys.PoolStats()}
	b.StopTimer()
	for _, sg := range sys.Stats().Stages {
		if sg.Name == "detect" {
			r.detect = sg.Busy
		}
	}
	for _, id := range ids {
		r.state += sys.Site(id).Detector().StateSize()
	}
	b.StartTimer()
	return r
}

// sinks prevent dead-code elimination.
var (
	sinkInt int
	sinkSet core.SetStamp
)
