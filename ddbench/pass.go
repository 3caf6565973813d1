package main

import (
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/ddetect"
	"repro/internal/event"
	"repro/internal/obs"
)

// passMode selects what one pass over a workload's stream measures.
type passMode int

const (
	// modeReference runs the differential configuration untimed; its
	// digest is what every measured pass must reproduce.
	modeReference passMode = iota
	// modeTimed is an untraced measured pass: the end-to-end metrics.
	modeTimed
	// modeTraced records spans around every call into the engine and
	// every stage tick: the per-layer metrics.
	modeTraced
)

// outcome is what one pass measured.
type outcome struct {
	// stream indexes the run's stream the pass drove; events is the
	// number of primitives it raised.
	stream     int
	events     int
	digest     uint64
	detections int
	// lat holds raise-to-callback latencies in microticks, one per
	// detection (measured passes only).
	lat []int64
	// setup is the wall time of NewSystem through the seal; wall, early
	// and late time the stream (all of it, up to the middle item, and
	// from there through Settle).
	setup, wall, early, late time.Duration
	// allocBytes is TotalAlloc over the timed region; retained is the
	// heap after Settle and a GC minus the heap before the timed region.
	allocBytes uint64
	retained   int64
	gcCycles   uint32
	gcPauseNs  uint64
	stats      ddetect.Stats
	pool       event.PoolStats
	raiseErrs  int
	settleErr  error
	// stateMid and stateEnd sum Detector.StateSize over all sites at the
	// middle of the stream (traced passes) and after Settle.
	stateMid, stateEnd int
	// spanBytes counts what the always-on tracer wrote to its discard
	// sink; exportNs times one Registry.WritePrometheus after Settle
	// (traced passes of observed workloads).
	spanBytes int64
	exportNs  int64
	// firstSpan indexes this pass's first span in the recorder.
	firstSpan int
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// collector is the subscriber behind every definition.  Per detection it
// folds the definition name, the Max-set stamp and each primitive
// constituent's stream index into an order-sensitive digest, and — in
// measured passes — samples the simulated latency from the raise of the
// newest primitive constituent to this callback.  It never allocates:
// the latency buffer is sized from the reference run's detection count.
type collector struct {
	sys    *ddetect.System
	items  []item
	digest uint64
	n      int
	lat    []int64
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x00000100000001b3
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix(h, uint64(len(s)))
}

func (c *collector) observe(o *event.Occurrence) {
	h := mixString(c.digest, o.Type)
	for _, s := range o.Stamp {
		h = mixString(h, string(s.Site))
		h = mix(mix(h, uint64(s.Global)), uint64(s.Local))
	}
	newest, h := c.walk(o, -1, h)
	c.digest = h
	c.n++
	if len(c.lat) < cap(c.lat) && newest >= 0 {
		c.lat = append(c.lat, int64(c.sys.Now()-newest))
	}
}

// walk folds the stream index of every primitive under o and returns the
// latest raise instant among them.
func (c *collector) walk(o *event.Occurrence, newest clock.Microticks, h uint64) (clock.Microticks, uint64) {
	if len(o.Constituents) == 0 {
		var n int64 = -1
		switch v := o.Params["n"].(type) {
		case int:
			n = int64(v)
		case int64: // decoded from the wire
			n = v
		}
		h = mix(h, uint64(n))
		if n >= 0 && n < int64(len(c.items)) && c.items[n].at > newest {
			newest = c.items[n].at
		}
		return newest, h
	}
	for _, k := range o.Constituents {
		newest, h = c.walk(k, newest, h)
	}
	return newest, h
}

// stateSize sums the detector state buffered across all sites.
func stateSize(sites []*ddetect.Site) int {
	total := 0
	for _, s := range sites {
		total += s.Detector().StateSize()
	}
	return total
}

// runPass builds a fresh system and drives the whole stream through it.
// latCap sizes the latency buffer (0 samples nothing); rec is required in
// modeTraced and ignored otherwise.
func runPass(in *input, mode passMode, latCap int, rec *recorder) (*outcome, error) {
	out := &outcome{events: len(in.items)}
	col := &collector{items: in.items, digest: fnvOffset}
	if mode != modeReference {
		col.lat = make([]int64, 0, latCap)
	}
	var cfg ddetect.Config
	var sink *countingWriter
	var reg *obs.Registry
	if mode == modeReference {
		cfg = in.config(true)
	} else {
		cfg, sink, reg = in.measuredConfig()
	}
	handler := col.observe
	if mode != modeTraced {
		rec = nil
	} else {
		cfg.Pipeline.OnStage = rec.onStage
		handler = func(o *event.Occurrence) {
			sp := rec.begin(kindHandler)
			col.observe(o)
			rec.end(sp)
		}
		out.firstSpan = len(rec.spans)
		rec.startPass()
	}

	sp := rec.begin(kindSetup)
	rec.setOpen(sp)
	t0 := time.Now()
	sys, err := in.setup(cfg, handler, rec)
	out.setup = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	col.sys = sys
	sites := make([]*ddetect.Site, len(in.sites))
	for i, id := range in.sites {
		sites[i] = sys.Site(id)
	}

	var m0, m1, m2 runtime.MemStats
	if mode != modeReference {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	if mode == modeTraced {
		driveTraced(in, sys, sites, rec, out)
	} else {
		drive(in, sys, sites, out)
	}
	if mode != modeReference {
		runtime.ReadMemStats(&m1)
	}

	out.digest, out.detections, out.lat = col.digest, col.n, col.lat
	out.stats = sys.Stats()
	out.pool = sys.PoolStats()
	out.stateEnd = stateSize(sites)
	if mode == modeReference {
		return out, nil
	}
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = m1.NumGC - m0.NumGC
	out.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if sink != nil {
		out.spanBytes = sink.n
	}
	if mode == modeTraced && reg != nil {
		t := time.Now()
		err := reg.WritePrometheus(&countingWriter{})
		out.exportNs = int64(time.Since(t))
		if err != nil {
			return nil, err
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	out.retained = int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	runtime.KeepAlive(sys)
	return out, nil
}

// drive is the untraced loop: distsim's Run/Raise per item, then Settle.
func drive(in *input, sys *ddetect.System, sites []*ddetect.Site, out *outcome) {
	half := len(in.items) / 2
	start := time.Now()
	mid := start
	for i := range in.items {
		if i == half {
			mid = time.Now()
		}
		it := &in.items[i]
		sys.Run(it.at, runStep)
		if _, err := sites[it.site].Raise(it.typ, event.Explicit, it.params); err != nil {
			out.raiseErrs++
		}
	}
	out.settleErr = sys.Settle(settleSteps)
	end := time.Now()
	out.wall, out.early, out.late = end.Sub(start), mid.Sub(start), end.Sub(mid)
}

// driveTraced is drive with a span around every Run that steps, every
// Raise and the Settle; stage ticks and handler calls arrive through the
// recorder's hooks while a Run or Settle span is open.
func driveTraced(in *input, sys *ddetect.System, sites []*ddetect.Site, rec *recorder, out *outcome) {
	half := len(in.items) / 2
	root := rec.begin(kindRoot)
	rec.open = root
	for i := range in.items {
		if i == half {
			p := rec.begin(kindProbe)
			out.stateMid = stateSize(sites)
			rec.end(p)
			rec.late = true
		}
		it := &in.items[i]
		if it.at > sys.Now() {
			r := rec.begin(kindRun)
			rec.open = r
			sys.Run(it.at, runStep)
			rec.open = root
			rec.end(r)
		} else {
			sys.Run(it.at, runStep) // already there: Run steps nothing
		}
		s := rec.begin(kindRaise)
		_, err := sites[it.site].Raise(it.typ, event.Explicit, it.params)
		rec.end(s)
		if err != nil {
			out.raiseErrs++
		}
	}
	s := rec.begin(kindSettle)
	rec.open = s
	out.settleErr = sys.Settle(settleSteps)
	rec.end(s)
	rec.end(root)
	rec.open = -1
	r := rec.spans[root]
	out.wall = time.Duration(r.end - r.start)
}
