// Command distsim runs an end-to-end distributed detection simulation and
// reports detection counts, timestamp set sizes and latency under
// configurable sites, network adversity and clock skew.
// -workers parallelizes the detect stage across sites (results are
// identical to sequential); -stats prints per-stage pipeline counters and
// wall-clock latency histograms.
//
// Observability (internal/obs): -trace FILE writes the event lineage as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto; one
// trace microsecond = one simulated microtick), -spanlog FILE writes the
// same spans as greppable key=value lines, -metrics prom|json appends a
// metrics export to the report, and -flightrec N dumps the last N spans
// per site at the end of the run.  -sample RATE head-samples the span
// stream (deterministically, seeded from -seed; lineage stays complete),
// -pprof FILE writes a heap profile after the run and folds the runtime
// collectors (heap, GC, goroutines) into -metrics.  All of it is a pure
// observer: the simulation output is identical with every flag on or off.
//
//	distsim -sites 8 -events 5000 -latency 20 -jitter 60 -drop 0.05 -workers 4 -stats
//	distsim -sites 4 -events 2000 -trace trace.json -metrics prom -flightrec 32
//	distsim -events 20000 -spanlog spans.log -sample 0.01 -pprof heap.pb.gz -metrics prom
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/clock"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// options parameterizes one simulation run.
type options struct {
	sites   int
	events  int
	meanGap int64
	latency int64
	jitter  int64
	drop    float64
	skew    int64
	seed    int64
	workers int
	stats   bool
	// defs > 0 replaces the fixed four-definition setup with a generated
	// multi-tenant definition set of that size (workload.GenDefs), hosted
	// round-robin across the sites; overlap is its shared-subexpression
	// fraction.
	defs    int
	overlap float64
	// noPool disables the occurrence pool (the determinism differential
	// mode; detections are byte-identical either way).
	noPool bool
	// noSharing disables common-subexpression sharing in every site's
	// detector (the other differential mode; same contract).
	noSharing bool
	// metrics selects a registry export appended to the report: "",
	// "prom" (Prometheus text) or "json" (expvar-style).
	metrics string
	// flightrec > 0 keeps the last N spans per site and dumps them at
	// the end of the report.
	flightrec int
	// sample >= 0 head-samples the span stream at that rate, seeded from
	// the run seed (negative keeps every span).  Sampling thins tracer
	// output only; the report is identical at every rate.
	sample float64
	// trace and spanlog, when non-nil, receive the Chrome trace_event
	// JSON and the line-oriented span log; pprof receives a heap profile
	// written after the run settles (main points them at the -trace,
	// -spanlog and -pprof files).  A pprof destination also folds the
	// runtime collectors into the -metrics registry.
	trace   io.Writer
	spanlog io.Writer
	pprof   io.Writer
}

func main() {
	sites := flag.Int("sites", 4, "number of sites")
	events := flag.Int("events", 2000, "number of primitive events")
	meanGap := flag.Int64("gap", 60, "mean inter-arrival time (microticks)")
	latency := flag.Int64("latency", 20, "network base latency (microticks)")
	jitter := flag.Int64("jitter", 40, "network jitter (microticks)")
	drop := flag.Float64("drop", 0, "network drop rate")
	skew := flag.Int64("skew", 30, "max clock offset ± (microticks, < Π/2)")
	seed := flag.Int64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "detect-stage worker count (0 = sequential; results identical)")
	stats := flag.Bool("stats", false, "print per-stage pipeline counters, latency histograms and pool counters")
	defsN := flag.Int("defs", 0, "generate this many definitions instead of the fixed four (multi-tenant mode)")
	overlap := flag.Float64("overlap", 0.5, "shared-subexpression fraction of generated definitions (with -defs)")
	noPool := flag.Bool("no-pool", false, "disable the occurrence pool (differential mode; identical detections)")
	noSharing := flag.Bool("no-sharing", false, "disable common-subexpression sharing (differential mode; identical detections)")
	metrics := flag.String("metrics", "", "append a metrics export to the report: prom or json")
	flightrec := flag.Int("flightrec", 0, "keep and dump the last N spans per site")
	traceFile := flag.String("trace", "", "write the event lineage as Chrome trace_event JSON to this file")
	spanFile := flag.String("spanlog", "", "write the event lineage as key=value span lines to this file")
	sample := flag.Float64("sample", -1, "head-sample trace spans at this rate in [0,1] (deterministic per -seed; negative keeps everything)")
	pprofFile := flag.String("pprof", "", "write a heap profile to this file and fold runtime collectors into -metrics")
	flag.Parse()
	if *metrics != "" && *metrics != "prom" && *metrics != "json" {
		fmt.Fprintf(os.Stderr, "distsim: -metrics must be prom or json, got %q\n", *metrics)
		os.Exit(2)
	}
	if *sample > 1 {
		fmt.Fprintf(os.Stderr, "distsim: -sample must be in [0,1] (or negative for off), got %g\n", *sample)
		os.Exit(2)
	}
	if *overlap < 0 || *overlap > 1 {
		fmt.Fprintf(os.Stderr, "distsim: -overlap must be in [0,1], got %g\n", *overlap)
		os.Exit(2)
	}
	o := options{
		sites: *sites, events: *events, meanGap: *meanGap,
		latency: *latency, jitter: *jitter, drop: *drop, skew: *skew, seed: *seed,
		workers: *workers, stats: *stats, noPool: *noPool, noSharing: *noSharing,
		metrics: *metrics, flightrec: *flightrec, sample: *sample,
		defs: *defsN, overlap: *overlap,
	}
	for _, f := range []struct {
		path string
		dst  *io.Writer
	}{{*traceFile, &o.trace}, {*spanFile, &o.spanlog}, {*pprofFile, &o.pprof}} {
		if f.path == "" {
			continue
		}
		file, err := os.Create(f.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "distsim:", err)
			os.Exit(1)
		}
		defer file.Close()
		*f.dst = file
	}
	simulate(os.Stdout, o)
}

// simulate runs one configuration and writes the report to w.
func simulate(w io.Writer, o options) {
	sites, events := &o.sites, &o.events
	meanGap, latency, jitter := &o.meanGap, &o.latency, &o.jitter
	drop, skew, seed := &o.drop, &o.skew, &o.seed

	cfg := ddetect.Config{
		Net: network.Config{
			BaseLatency: *latency, Jitter: *jitter,
			DropRate: *drop, RetransmitDelay: 4 * *latency,
			Seed: workload.SubSeed(*seed, "net"),
		},
		Pipeline:       pipeline.Config{Workers: o.workers},
		DisablePooling: o.noPool,
		DisableSharing: o.noSharing,
	}
	if *drop > 0 && cfg.Net.RetransmitDelay == 0 {
		cfg.Net.RetransmitDelay = 100
	}

	// Observability sinks (all optional, all pure observers).
	var sinks obs.MultiSink
	var chrome *obs.ChromeTrace
	if o.trace != nil {
		chrome = obs.NewChromeTrace(o.trace)
		sinks = append(sinks, chrome)
	}
	var spanLog *obs.SpanLog
	if o.spanlog != nil {
		spanLog = obs.NewSpanLog(o.spanlog)
		sinks = append(sinks, spanLog)
	}
	var rec *obs.FlightRecorder
	if o.flightrec > 0 {
		rec = obs.NewFlightRecorder(o.flightrec)
		sinks = append(sinks, rec)
	}
	if len(sinks) > 0 {
		cfg.Trace = obs.NewTracer(sinks)
	}
	if o.sample >= 0 {
		// Head sampling is seeded from the run seed: the same run keeps the
		// same spans, whatever the worker count, transport or pooling mode.
		cfg.Sample = obs.NewSampler(uint64(workload.SubSeed(*seed, "sample")), o.sample)
	}
	var reg *obs.Registry
	if o.metrics != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
		if o.pprof != nil {
			// Process-health gauges are genuinely nondeterministic, so they
			// join the export only alongside an explicit profiling request.
			obs.RegisterRuntimeCollector(reg)
		}
	}

	sys := ddetect.MustNewSystem(cfg)

	// Topology, network schedule and event stream each get a derived
	// sub-seed: feeding all three the raw seed made their first draws
	// correlated (identical generator states), so e.g. raising -seed by
	// one shifted every stream in lockstep.
	rng := rand.New(rand.NewSource(workload.SubSeed(*seed, "topology")))
	siteIDs := workload.SiteIDs(*sites)
	for i := range siteIDs {
		offset := rng.Int63n(2**skew+1) - *skew
		sys.MustAddSite(siteIDs[i], offset, rng.Int63n(5))
	}

	types := []string{"A", "B", "C", "D"}
	var defNames []string
	if o.defs > 0 {
		// Multi-tenant mode: a generated alphabet sized to hold per-type
		// fan-in roughly constant, and o.defs definitions hosted
		// round-robin across the sites.
		p := o.defs / 8
		if p < 8 {
			p = 8
		}
		types = workload.TypeNames(p)
		gen := workload.GenDefs(workload.DefsConfig{
			Count: o.defs, Types: types, Overlap: o.overlap,
			Seed: workload.SubSeed(*seed, "defs"),
		})
		for _, typ := range types {
			if err := sys.Declare(typ, event.Explicit); err != nil {
				panic(err)
			}
		}
		for i, d := range gen {
			host := siteIDs[i%len(siteIDs)]
			if _, err := sys.DefineAt(host, d.Name, d.Expr, detector.Chronicle); err != nil {
				panic(err)
			}
			defNames = append(defNames, d.Name)
		}
	} else {
		for _, typ := range types {
			if err := sys.Declare(typ, event.Explicit); err != nil {
				panic(err)
			}
		}
		defs := []struct{ name, expr string }{
			{"Seq", "A ; B"},
			{"Conj", "C AND D"},
			{"Guard", "NOT(C)[A, D]"},
			{"Sweep", "A*(A, B, C)"},
		}
		for _, d := range defs {
			if _, err := sys.DefineAt(siteIDs[0], d.name, d.expr, detector.Chronicle); err != nil {
				panic(err)
			}
			defNames = append(defNames, d.name)
		}
	}
	setSizes := map[int]int{}
	for _, name := range defNames {
		if err := sys.Subscribe(name, func(o *event.Occurrence) {
			setSizes[len(o.Stamp)]++
		}); err != nil {
			panic(err)
		}
	}

	// Topology and definitions are final: seal, and hand the roster to the
	// roster-aware observers so tracks and rings key by dense site index
	// (stable across runs, whatever order sites first speak in).
	roster := sys.Roster()
	if chrome != nil {
		chrome.UseRoster(roster)
	}
	if rec != nil {
		rec.UseRoster(roster)
	}

	trace := workload.GenStream(workload.StreamConfig{
		Sites: siteIDs, Types: types, MeanGap: *meanGap, Count: *events,
		Seed: workload.SubSeed(*seed, "stream"),
	})
	for _, item := range trace.Items {
		sys.Run(item.At, clock.Microticks(50))
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, item.Params)
	}
	if err := sys.Settle(10_000); err != nil {
		panic(err)
	}

	st := sys.Stats()
	fmt.Fprintf(w, "sites=%d events=%d horizon=%d microticks\n", *sites, *events, trace.Horizon())
	if o.defs > 0 {
		fmt.Fprintf(w, "definitions=%d overlap=%.2f alphabet=%d (multi-tenant mode)\n",
			o.defs, o.overlap, len(types))
	}
	fmt.Fprintf(w, "network: latency=%d jitter=%d drop=%.2f  sent=%d retransmitted=%d\n",
		*latency, *jitter, *drop, st.Net.Sent, st.Net.Retransmitted)
	ratio := float64(st.Net.Envelopes)
	if st.Net.Sent > 0 {
		ratio /= float64(st.Net.Sent)
	}
	fmt.Fprintf(w, "transport: messages=%d envelopes=%d batches=%d coalescing=%.2fx payload-bytes=%d\n",
		st.Net.Sent, st.Net.Envelopes, st.Net.Batches, ratio, st.Net.PayloadBytes)
	fmt.Fprintf(w, "released=%d detections=%d unconsumed=%d\n", st.Released, st.Detections, st.Unconsumed)
	fmt.Fprintf(w, "latency: mean=%.1f max=%d microticks (raise -> watermark release)\n",
		st.MeanLatency(), st.LatencyMax)
	if o.defs > 0 {
		// Per-definition lines would be thousands deep; summarize.
		active := 0
		var total uint64
		for _, ds := range st.Definitions {
			if ds.Detections > 0 {
				active++
				total += ds.Detections
			}
		}
		fmt.Fprintf(w, "\ndefinitions with detections: %d/%d (total %d)\n",
			active, len(st.Definitions), total)
	} else {
		fmt.Fprintln(w, "\ndetections per definition (detect latency in event-time microticks):")
		for _, ds := range st.Definitions {
			fmt.Fprintf(w, "  %-8s %6d  latency mean=%.1f max=%d\n",
				ds.Name, ds.Detections, ds.MeanLatency(), ds.LatencyMax)
		}
	}
	fmt.Fprintln(w, "\ncomposite timestamp set sizes (|T(e)|): count")
	for size := 1; size <= *sites; size++ {
		if n, ok := setSizes[size]; ok {
			fmt.Fprintf(w, "  %2d: %d\n", size, n)
		}
	}

	if o.stats {
		fmt.Fprintf(w, "\npipeline stages (workers=%d):\n", sys.Workers())
		fmt.Fprintf(w, "  %-10s %8s %10s %12s %10s %10s\n",
			"stage", "ticks", "items", "busy", "max-tick", "p99-tick")
		for _, sg := range st.Stages {
			fmt.Fprintf(w, "  %-10s %8d %10d %12v %10v %10v\n",
				sg.Name, sg.Ticks, sg.Items, sg.Busy.Round(time.Microsecond),
				sg.MaxTick.Round(time.Microsecond), sg.Hist.Quantile(0.99))
		}
		ps := sys.PoolStats()
		if ps.Gets > 0 {
			hit := 1 - float64(ps.Misses)/float64(ps.Gets)
			fmt.Fprintf(w, "occurrence pool: gets=%d puts=%d misses=%d hit-rate=%.3f double-puts-averted=%d\n",
				ps.Gets, ps.Puts, ps.Misses, hit, ps.DoublePuts)
		} else {
			fmt.Fprintln(w, "occurrence pool: disabled (-no-pool)")
		}
		// Detector state summed over sites: what is still buffered, what
		// the release horizon proved dead and freed, and what a buffer
		// limit evicted at a recall cost (none here: distsim sets no limit).
		var state int
		var reclaimed, dropped uint64
		for _, id := range siteIDs {
			is := sys.Site(id).Detector().Introspect()
			state += is.StateSize
			reclaimed += is.Reclaimed
			dropped += is.Dropped
		}
		fmt.Fprintf(w, "detector state: size=%d reclaimed=%d dropped=%d\n", state, reclaimed, dropped)
		fmt.Fprintln(w, "stage legs (event-time microticks per lifecycle hop):")
		for _, ls := range st.Legs {
			if ls.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-22s count=%-8d mean=%-8.1f max=%d\n", ls.Leg, ls.Count, ls.Mean(), ls.Max)
		}
	}

	if reg != nil {
		fmt.Fprintf(w, "\nmetrics (%s):\n", o.metrics)
		var err error
		if o.metrics == "json" {
			err = reg.WriteJSON(w)
		} else {
			err = reg.WritePrometheus(w)
		}
		if err != nil {
			panic(err)
		}
	}
	if rec != nil {
		fmt.Fprintf(w, "\nflight recorder (last %d spans per site):\n", o.flightrec)
		if err := rec.Dump(w); err != nil {
			panic(err)
		}
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			panic(err)
		}
	}
	if spanLog != nil && spanLog.Err() != nil {
		panic(spanLog.Err())
	}
	if o.pprof != nil {
		// Settle the heap first so the profile shows what the run retains,
		// not what the collector hasn't reclaimed yet.
		runtime.GC()
		if err := pprof.Lookup("heap").WriteTo(o.pprof, 0); err != nil {
			panic(err)
		}
	}
}
