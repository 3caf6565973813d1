package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/pipeline"
)

// kind names what a span covers.  Spans are recorded from the benchmark's
// side of the API: around each call into the engine, plus one span per
// pipeline stage tick delivered through pipeline.Config.OnStage.
type kind uint8

const (
	kindSetup kind = iota // NewSystem through the seal
	kindNewSystem
	kindAddSite
	kindDeclare
	kindDefine
	kindSubscribe
	kindSeal
	kindRoot // the timed region: stream plus Settle
	kindRun
	kindRaise
	kindSettle
	kindProbe // the mid-stream state-size read (benchmark overhead)
	kindStep  // one pipeline tick, ingest start to publish end
	kindIngest
	kindTransport
	kindRelease
	kindDetect
	kindPublish
	kindOtherStage
	kindHandler // the subscriber callback
	numKinds
)

var kindNames = [numKinds]string{
	"setup", "setup.new_system", "setup.add_site", "setup.declare", "setup.define",
	"setup.subscribe", "setup.seal", "timed", "run", "raise", "settle", "probe", "step",
	"stage.ingest", "stage.transport", "stage.release", "stage.detect", "stage.publish",
	"stage.other", "handler",
}

func stageKind(name string) kind {
	switch name {
	case "ingest":
		return kindIngest
	case "transport":
		return kindTransport
	case "release":
		return kindRelease
	case "detect":
		return kindDetect
	case "publish":
		return kindPublish
	}
	return kindOtherStage
}

// span is one recorded interval in nanoseconds since the recorder's base.
type span struct {
	start, end int64
	// parent indexes the enclosing span in recorder.spans (-1 for the
	// setup and timed roots); pass numbers the traced pass.
	parent int32
	pass   int32
	kind   kind
	// late marks spans recorded in the second half of the stream.
	late bool
}

// recorder keeps every span of every traced pass in memory; write dumps
// them once at the end.  All methods are no-ops on a nil recorder, so the
// setup path is shared by traced and untraced passes.
type recorder struct {
	base  time.Time
	spans []span
	pass  int32
	// open is the span new spans hang off; step is the open Step span
	// between a tick's ingest and publish stage events (-1 otherwise).
	open, step int32
	late       bool
	// hookNs accumulates the time spent inside onStage itself, per pass.
	hookNs int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity), pass: -1, open: -1, step: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// startPass opens the span range of a new traced pass.
func (r *recorder) startPass() {
	r.pass++
	r.open, r.step, r.late, r.hookNs = -1, -1, false, 0
}

func (r *recorder) begin(k kind) int32 {
	if r == nil {
		return -1
	}
	parent := r.open
	if k == kindHandler && r.step >= 0 {
		parent = r.step
	}
	r.spans = append(r.spans, span{start: r.now(), parent: parent, pass: r.pass, kind: k, late: r.late})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].end = r.now()
	}
}

func (r *recorder) setOpen(i int32) {
	if r != nil {
		r.open = i
	}
}

// onStage is the pipeline.Config.OnStage hook.  The engine reports each
// stage tick after it ends, with its wall-clock duration, so the span is
// [now-Elapsed, now].  The ingest stage opens a Step span under the open
// Run or Settle span; the publish stage closes it.
func (r *recorder) onStage(ev pipeline.StageEvent) {
	t := r.now()
	k := stageKind(ev.Stage)
	start := t - int64(ev.Elapsed)
	if k == kindIngest {
		r.spans = append(r.spans, span{start: start, parent: r.open, pass: r.pass, kind: kindStep, late: r.late})
		r.step = int32(len(r.spans) - 1)
	}
	r.spans = append(r.spans, span{start: start, end: t, parent: r.step, pass: r.pass, kind: k, late: r.late})
	if k == kindPublish && r.step >= 0 {
		r.spans[r.step].end = t
		r.step = -1
	}
	r.hookNs += r.now() - t
}

// layers is one traced pass's time broken down by layer, in nanoseconds.
type layers struct {
	total    [numKinds]int64 // summed span durations per kind
	early    [numKinds]int64 // the same over the first half of the stream
	count    [numKinds]int
	raiseP50 float64
	hookNs   int64
}

// analyze sums one pass's spans by kind.
func (r *recorder) analyze(first int) layers {
	var l layers
	var raises []int64
	for _, s := range r.spans[first:] {
		d := s.end - s.start
		l.total[s.kind] += d
		l.count[s.kind]++
		if !s.late {
			l.early[s.kind] += d
		}
		if s.kind == kindRaise {
			raises = append(raises, d)
		}
	}
	if len(raises) > 0 {
		sort.Slice(raises, func(i, j int) bool { return raises[i] < raises[j] })
		l.raiseP50 = float64(raises[len(raises)/2])
	}
	l.hookNs = r.hookNs
	return l
}

// stages is the summed duration of the five stage kinds (plus any stage
// the engine adds later).
func (l *layers) stages() int64 {
	var t int64
	for k := kindIngest; k <= kindOtherStage; k++ {
		t += l.total[k]
	}
	return t
}

// stepSelf is the pipeline driver's own time: the Run and Settle spans
// minus the stage ticks inside them and the hook's own cost.
func (l *layers) stepSelf() int64 {
	return l.total[kindRun] + l.total[kindSettle] - l.stages() - l.hookNs
}

// unattributed is the part of the timed region no layer accounts for:
// the benchmark loop itself and the Run calls that had nothing to step.
func (l *layers) unattributed() int64 {
	return l.total[kindRoot] - l.total[kindRaise] - l.total[kindRun] - l.total[kindSettle] - l.total[kindProbe]
}

// write dumps every recorded span as tab-separated lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "pass\tid\tparent\tkind\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.pass, i, s.parent, kindNames[s.kind], s.start, s.end)
	}
	return bw.Flush()
}
