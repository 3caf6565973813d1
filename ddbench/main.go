// Command ddbench is the repository benchmark.  It drives ddetect.System
// through its public API, in one process and with the sequential crank
// (Pipeline.Workers 0), over one of three distsim-shaped workloads
// generated from --seed, and checks every measured pass's detections
// against a differential reference run.
//
// With --trace 0 it repeats untraced passes for --seconds and reports the
// end-to-end metrics as medians; with --trace 1 it alternates untraced
// and traced passes and reports the per-layer metrics of the traced ones,
// which record spans around every call into the engine and every pipeline
// stage tick.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the root of a checkout:
//
//	bash ddbench/run.sh --workload guarded-mix --seed 1 --seconds 20 --trace 0
//
// The exit code is 0 when every pass reproduced the reference detections,
// 1 when one did not (the result is still printed), and 2 when the run
// could not be made at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ddetect"
	"repro/internal/workload"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// events overrides the workload's stream length for the benchmark's
	// own smoke tests; the command line always runs the fixed length.
	events int
	// spansDir receives the traced passes' spans; "" writes none.
	spansDir string
}

const (
	// streams is the number of input streams a run derives from its seed.
	streams = 8
	// minPasses is the fewest measured passes a run makes, however long
	// each takes: one per stream.
	minPasses = streams
	// setupsPerPass are setup-only repetitions made before each measured
	// pass, so setup_s is a median over many samples.
	setupsPerPass = 4
	// spanBudget caps the spans kept in memory for the final dump; passes
	// past it are analyzed and then dropped.
	spanBudget = 400_000
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the result of one invocation.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: guarded-mix, local-pairs or wide-lossy-wire")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	spansDir := fs.String("spans-dir", "", "directory the traced passes' spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "ddbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	o := options{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spansDir: *spansDir,
	}
	rep, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "ddbench:", err)
		return 2
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "ddbench:", err)
		return 2
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// bench makes the reference runs and then the measured passes.  A run
// measures several streams of its workload, derived from the seed, and
// cycles the passes over them: the metrics then describe the workload
// rather than one draw of it.
func bench(o options) (*report, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	events := w.events
	if o.events > 0 {
		events = o.events
	}
	// Streams are generated again for every pass rather than kept, so only
	// the stream being driven adds to the heap the engine's GC paces on.
	stream := func(j int) *input { return w.gen(streamSeed(o.seed, j), events) }
	refs := make([]*outcome, streams)
	for j := range refs {
		ref, err := runPass(stream(j), modeReference, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		if ref.settleErr != nil || ref.raiseErrs > 0 || ref.detections == 0 {
			return nil, fmt.Errorf("reference run of %s stream %d failed: settle=%v raise errors=%d detections=%d",
				o.workload, j, ref.settleErr, ref.raiseErrs, ref.detections)
		}
		refs[j] = ref
	}

	rep := &report{correct: true}
	measured := func(in *input, j int, mode passMode, rec *recorder) (*outcome, error) {
		out, err := runPass(in, mode, refs[j].detections, rec)
		if err != nil {
			return nil, err
		}
		out.stream = j
		rep.attempted += out.events
		if f := failures(out, refs[j]); f > 0 {
			rep.failed += f
			rep.correct = false
		}
		return out, nil
	}

	deadline := time.Now().Add(o.seconds)
	var timed, traced []*outcome
	if !o.trace {
		var setups []float64
		for len(timed) < minPasses || time.Now().Before(deadline) {
			j := len(timed) % streams
			in := stream(j)
			for i := 0; i < setupsPerPass; i++ {
				d, err := setupOnly(in)
				if err != nil {
					return nil, err
				}
				setups = append(setups, d.Seconds())
			}
			out, err := measured(in, j, modeTimed, nil)
			if err != nil {
				return nil, err
			}
			timed = append(timed, out)
			setups = append(setups, out.setup.Seconds())
		}
		rep.metrics = endToEnd(timed, setups)
		q := each(timed, eventsPerSecond)
		rep.notes = append(rep.notes, fmt.Sprintf("events_per_s per pass: lower quartile %.1f, upper quartile %.1f",
			quantile(q, 0.25), quantile(q, 0.75)))
	} else {
		rec := newRecorder(spanBudget)
		var ls []layers
		for len(traced) < minPasses || time.Now().Before(deadline) {
			j := len(traced) % streams
			in := stream(j)
			out, err := measured(in, j, modeTimed, nil)
			if err != nil {
				return nil, err
			}
			timed = append(timed, out)
			if out, err = measured(in, j, modeTraced, rec); err != nil {
				return nil, err
			}
			traced = append(traced, out)
			ls = append(ls, rec.analyze(out.firstSpan))
			if len(rec.spans) > spanBudget && out.firstSpan > 0 {
				rec.spans = rec.spans[:out.firstSpan]
			}
		}
		rep.metrics = perLayer(timed, traced, ls)
		if o.spansDir != "" {
			path := filepath.Join(o.spansDir, "spans-"+o.workload+".tsv")
			if err := writeSpans(rec, path); err != nil {
				return nil, err
			}
			rep.notes = append(rep.notes, fmt.Sprintf("spans of %d traced passes written to %s",
				rec.spans[len(rec.spans)-1].pass+1, path))
		}
	}
	var detections int
	for _, r := range refs {
		detections += r.detections
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload=%s seed=%d streams=%d events/stream=%d passes=%d traced=%d reference detections=%d",
			o.workload, o.seed, streams, timed[0].events, len(timed), len(traced), detections),
		fmt.Sprintf("failed_frac=%g (%d failed of %d attempted)",
			float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted),
		fmt.Sprintf("detect latency samples=%d (first pass of each stream)", len(latencies(timed))))
	return rep, nil
}

// streamSeed derives the seed of a run's j'th stream.  Stream 0 uses the
// run's seed itself, so it is the stream distsim generates at that seed.
func streamSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	return workload.SubSeed(seed, fmt.Sprintf("ddbench-stream-%d", j))
}

// failures counts the primitives a measured pass failed: raise errors,
// events still pending when Settle gave up, and every event of a pass
// whose detections differ from the reference run's.
func failures(out, ref *outcome) int {
	f := out.raiseErrs
	if out.settleErr != nil {
		f += max(int(ref.stats.Released)-int(out.stats.Released), 1)
	}
	if out.digest != ref.digest || out.detections != ref.detections {
		f = out.events
	}
	return min(f, out.events)
}

// setupOnly times one setup of the measured configuration.
func setupOnly(in *input) (time.Duration, error) {
	cfg, _, _ := in.measuredConfig()
	col := &collector{items: in.items}
	t := time.Now()
	_, err := in.setup(cfg, col.observe, nil)
	return time.Since(t), err
}

func writeSpans(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of v, interpolated between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// each applies f to every outcome.
func each(outs []*outcome, f func(*outcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

func medianOf(outs []*outcome, f func(*outcome) float64) float64 { return median(each(outs, f)) }

// streamMean is the mean over streams of each stream's median of f: for
// figures fixed by the stream, such as memory, it weighs every stream
// once however many passes it got.
func streamMean(outs []*outcome, f func(*outcome) float64) float64 {
	var per [streams][]*outcome
	for _, o := range outs {
		per[o.stream] = append(per[o.stream], o)
	}
	var sum float64
	n := 0
	for _, group := range per {
		if len(group) > 0 {
			sum += medianOf(group, f)
			n++
		}
	}
	return sum / float64(n)
}

func eventsPerSecond(o *outcome) float64 {
	return float64(o.events) / o.wall.Seconds()
}

// latencies pools the detect latencies of the first pass over each
// stream (a stream's latencies are the same on every pass).
func latencies(timed []*outcome) []float64 {
	var all []float64
	for _, o := range timed[:min(len(timed), streams)] {
		for _, l := range o.lat {
			all = append(all, float64(l))
		}
	}
	return all
}

// endToEnd computes the user-visible metrics from untraced passes.
func endToEnd(timed []*outcome, setups []float64) []metric {
	lat := latencies(timed)
	return []metric{
		{"events_per_s", medianOf(timed, eventsPerSecond), "1/s"},
		{"cost_growth_x", medianOf(timed, func(o *outcome) float64 {
			half := o.events / 2
			return ratio(o.late.Seconds()/float64(o.events-half), o.early.Seconds()/float64(half))
		}), "x"},
		{"detect_latency_p50_ticks", quantile(lat, 0.50), "ticks"},
		{"detect_latency_p99_ticks", quantile(lat, 0.99), "ticks"},
		{"setup_s", median(setups), "s"},
		{"heap_retained_bytes", streamMean(timed, func(o *outcome) float64 { return float64(o.retained) }), "bytes"},
		{"alloc_bytes_per_event", streamMean(timed, func(o *outcome) float64 {
			return float64(o.allocBytes) / float64(o.events)
		}), "bytes"},
	}
}

// perLayer computes the per-layer metrics, each the median over the
// traced passes, plus the tracing overhead against the untraced passes.
func perLayer(timed, traced []*outcome, ls []layers) []metric {
	type def struct {
		name, unit string
		// f gets the pass's event count and its first-half share.
		f func(o *outcome, l *layers, n, half float64) float64
	}
	defs := []def{
		{"detect.ns_per_event", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindDetect]) / n
		}},
		{"detect.growth_x", "x", func(o *outcome, l *layers, n, half float64) float64 {
			early := float64(l.early[kindDetect])
			return ratio((float64(l.total[kindDetect])-early)/(n-half), early/half)
		}},
		{"detector.state_size_end", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.stateEnd)
		}},
		{"detector.state_growth_per_kevent", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.stateEnd-o.stateMid) / ((n - half) / 1000)
		}},
		{"detect.detections_per_release", "ratio", func(o *outcome, l *layers, n, half float64) float64 {
			return ratio(float64(o.stats.Detections), float64(o.stats.Released))
		}},
		{"ingest.ns_per_event", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindRaise]+l.total[kindIngest]) / n
		}},
		{"ingest.raise_call_ns_p50", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return l.raiseP50
		}},
		{"event.pool_hit_rate", "ratio", func(o *outcome, l *layers, n, half float64) float64 {
			return ratio(float64(o.pool.Gets-o.pool.Misses), float64(o.pool.Gets))
		}},
		{"transport.ns_per_event", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindTransport]) / n
		}},
		{"network.msgs_per_event", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.stats.Net.Sent) / n
		}},
		{"network.envelopes_per_msg", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return ratio(float64(o.stats.Net.Envelopes), float64(o.stats.Net.Sent))
		}},
		{"network.retransmits_per_msg", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return ratio(float64(o.stats.Net.Retransmitted), float64(o.stats.Net.Sent))
		}},
		{"ddetect.heartbeats_per_event", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.stats.Heartbeats) / n
		}},
		{"wire.bytes_per_event", "bytes", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.stats.Net.PayloadBytes) / n
		}},
		{"release.ns_per_event", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindRelease]) / n
		}},
		{"release.hold_mean_ticks", "ticks", func(o *outcome, l *layers, n, half float64) float64 {
			remote, local := o.stats.Legs[ddetect.LegRecvRelease], o.stats.Legs[ddetect.LegRaiseRelease]
			return ratio(float64(remote.Sum+local.Sum), float64(remote.Count+local.Count))
		}},
		{"publish.ns_per_event", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindPublish]-l.total[kindHandler]) / n
		}},
		{"pipeline.step_self_ns", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return ratio(float64(l.stepSelf()), float64(l.count[kindStep]))
		}},
		{"pipeline.steps_per_event", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.count[kindStep]) / n
		}},
		{"setup.define_ns", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindDefine])
		}},
		{"setup.seal_ns", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(l.total[kindSeal])
		}},
		{"obs.span_bytes_per_event", "bytes", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.spanBytes) / n
		}},
		{"obs.export_ns", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.exportNs)
		}},
		{"runtime.gc_cycles_per_kevent", "count", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.gcCycles) / (n / 1000)
		}},
		{"runtime.gc_pause_ns_per_event", "ns", func(o *outcome, l *layers, n, half float64) float64 {
			return float64(o.gcPauseNs) / n
		}},
		{"trace.unattributed_frac", "ratio", func(o *outcome, l *layers, n, half float64) float64 {
			return ratio(float64(l.unattributed()), float64(l.total[kindRoot]))
		}},
	}
	var ms []metric
	for _, d := range defs {
		v := make([]float64, len(traced))
		for i, o := range traced {
			v[i] = d.f(o, &ls[i], float64(o.events), float64(o.events/2))
		}
		ms = append(ms, metric{d.name, median(v), d.unit})
	}
	overhead := medianOf(timed, eventsPerSecond)/medianOf(traced, eventsPerSecond) - 1
	return append(ms, metric{"trace.overhead_frac", overhead, "ratio"})
}

// print writes the notes and metrics for people, then the JSON result as
// the last line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
