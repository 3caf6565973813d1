package main

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Every workload is open-loop in simulated time: its schedule is fixed in
// microticks before the run, so a slow engine cannot thin its own load.
// It is driven the way cmd/distsim drives the default simulation —
// Run(item.at, runStep), Raise, and Settle(settleSteps) at the end.
const (
	runStep     = clock.Microticks(50)
	settleSteps = 10_000
)

// def is one composite event definition and the index of its host site.
type def struct {
	host       int
	name, expr string
}

// item is one scheduled primitive raise.  Its stream index travels as the
// occurrence's only parameter ({"n": index}, as in distsim), which is how
// the subscriber maps each constituent back to its raise instant.
type item struct {
	at     clock.Microticks
	site   int
	typ    string
	params event.Params
}

// input is everything a workload run needs, generated from the seed
// alone: topology, definitions, network adversity and the raise schedule.
type input struct {
	workload  string
	seed      int64
	sites     []core.SiteID
	offsets   []clock.Microticks
	drifts    []int64
	types     []string
	defs      []def
	net       network.Config
	serialize bool
	// observe attaches the always-on observability posture: a tracer
	// into a counting discard sink, a 1% head sampler and a registry.
	observe bool
	items   []item
}

// workloadSpec names a workload, its default stream length and its
// generator.
type workloadSpec struct {
	name   string
	events int
	gen    func(seed int64, events int) *input
}

var workloads = []workloadSpec{
	{"guarded-mix", 4000, genGuardedMix},
	{"local-pairs", 16000, genLocalPairs},
	{"wide-lossy-wire", 12000, genWideLossyWire},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// topology draws per-site clock offsets (±skew) and drifts the way
// distsim does, from the seed's "topology" sub-stream.
func (in *input) topology(n int, skew int64) {
	rng := rand.New(rand.NewSource(workload.SubSeed(in.seed, "topology")))
	in.sites = workload.SiteIDs(n)
	for range in.sites {
		in.offsets = append(in.offsets, rng.Int63n(2*skew+1)-skew)
		in.drifts = append(in.drifts, rng.Int63n(5))
	}
}

// lossyNet is distsim's network configuration for the given adversity.
func lossyNet(seed, latency, jitter int64, drop float64) network.Config {
	return network.Config{
		BaseLatency: latency, Jitter: jitter, DropRate: drop,
		RetransmitDelay: 4 * latency,
		Seed:            workload.SubSeed(seed, "net"),
	}
}

// poisson appends a distsim-style stream: exponential gaps with the given
// mean, uniform site and type, parameters {"n": index}.
func (in *input) poisson(meanGap clock.Microticks, events int) {
	tr := workload.GenStream(workload.StreamConfig{
		Sites: in.sites, Types: in.types, MeanGap: meanGap, Count: events,
		Seed: workload.SubSeed(in.seed, "stream"),
	})
	index := make(map[core.SiteID]int, len(in.sites))
	for i, id := range in.sites {
		index[id] = i
	}
	in.items = make([]item, len(tr.Items))
	for i, it := range tr.Items {
		in.items[i] = item{at: it.At, site: index[it.Site], typ: it.Type, params: it.Params}
	}
}

// genGuardedMix is `distsim -sites 8 -events N` exactly: four Chronicle
// definitions at the first site, including NOT and A*, over a Poisson
// stream (mean gap 60) with latency 20, jitter 40 and skew ±30.
func genGuardedMix(seed int64, events int) *input {
	in := &input{workload: "guarded-mix", seed: seed, types: []string{"A", "B", "C", "D"}}
	in.topology(8, 30)
	in.net = lossyNet(seed, 20, 40, 0)
	in.defs = []def{
		{0, "Seq", "A ; B"},
		{0, "Conj", "C AND D"},
		{0, "Guard", "NOT(C)[A, D]"},
		{0, "Sweep", "A*(A, B, C)"},
	}
	in.poisson(60, events)
	return in
}

// genLocalPairs hosts `Aii ; Bii` at each of 8 sites over that site's own
// types only.  Every round raises a same-instant burst of 4–12 initiators
// per site and, one to two granules later, a same-instant burst of as many
// terminators, so every raise is self-delivered and every pair detects.
// The next round starts one to two granules after that.
func genLocalPairs(seed int64, events int) *input {
	const sites, granule = 8, 100
	in := &input{workload: "local-pairs", seed: seed}
	in.topology(sites, 30)
	in.net = network.Config{Seed: workload.SubSeed(seed, "net")}
	for i := 0; i < sites; i++ {
		a, b := fmt.Sprintf("A%02d", i), fmt.Sprintf("B%02d", i)
		in.types = append(in.types, a, b)
		in.defs = append(in.defs, def{i, fmt.Sprintf("P%02d", i), a + " ; " + b})
	}
	rng := rand.New(rand.NewSource(workload.SubSeed(seed, "stream")))
	burst := make([]int, sites)
	for at := clock.Microticks(granule); len(in.items) < events; {
		for s := range burst {
			burst[s] = 4 + rng.Intn(9)
		}
		term := at + granule + rng.Int63n(granule)
		for half, t := range []clock.Microticks{at, term} {
			for s, k := range burst {
				for j := 0; j < k; j++ {
					n := len(in.items)
					in.items = append(in.items, item{at: t, site: s, typ: in.types[2*s+half],
						params: event.Params{"n": n}})
				}
			}
		}
		at = term + granule + rng.Int63n(granule)
	}
	return in
}

// genWideLossyWire spreads four NOT-free definitions over three of 64
// sites and raises A–D from every site over a serialized, lossy, jittery
// network (drop 0.05 with retransmit, latency 20, jitter 60), with the
// always-on observability posture attached.
func genWideLossyWire(seed int64, events int) *input {
	in := &input{workload: "wide-lossy-wire", seed: seed, types: []string{"A", "B", "C", "D"},
		serialize: true, observe: true}
	in.topology(64, 30)
	in.net = lossyNet(seed, 20, 60, 0.05)
	in.defs = []def{
		{0, "Seq", "A ; B"},
		{21, "Conj", "C AND D"},
		{42, "Pair", "C ; D"},
		{0, "Either", "A OR D"},
	}
	in.poisson(60, events)
	return in
}

// config is the system configuration a run uses.  The reference run turns
// on the repository's three differential modes — no pooling, no batching,
// no sharing — whose detections must equal the optimized engine's.
func (in *input) config(reference bool) ddetect.Config {
	cfg := ddetect.Config{Net: in.net, Serialize: in.serialize}
	if reference {
		cfg.DisablePooling, cfg.DisableBatching, cfg.DisableSharing = true, true, true
	}
	return cfg
}

// measuredConfig is the configuration of a measured pass.  On observed
// workloads it attaches the always-on observability posture and returns
// its span sink and registry; both are nil otherwise.
func (in *input) measuredConfig() (ddetect.Config, *countingWriter, *obs.Registry) {
	cfg := in.config(false)
	if !in.observe {
		return cfg, nil, nil
	}
	sink := &countingWriter{}
	reg := obs.NewRegistry()
	cfg.Trace = obs.NewTracer(obs.NewSpanLog(sink))
	cfg.Sample = obs.NewSampler(uint64(workload.SubSeed(in.seed, "sample")), 0.01)
	cfg.Metrics = reg
	return cfg, sink, reg
}

// setup builds the system under test: NewSystem, AddSite, Declare,
// DefineAt, Subscribe and the seal — the calls setup_s times.  rec, when
// non-nil, records a span around each call.
func (in *input) setup(cfg ddetect.Config, h detector.Handler, rec *recorder) (*ddetect.System, error) {
	sp := rec.begin(kindNewSystem)
	sys, err := ddetect.NewSystem(cfg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	for i, id := range in.sites {
		sp = rec.begin(kindAddSite)
		_, err = sys.AddSite(id, in.offsets[i], in.drifts[i])
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	for _, typ := range in.types {
		sp = rec.begin(kindDeclare)
		err = sys.Declare(typ, event.Explicit)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	for _, d := range in.defs {
		sp = rec.begin(kindDefine)
		_, err = sys.DefineAt(in.sites[d.host], d.name, d.expr, detector.Chronicle)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	for _, d := range in.defs {
		sp = rec.begin(kindSubscribe)
		err = sys.Subscribe(d.name, h)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = rec.begin(kindSeal)
	sys.Roster()
	rec.end(sp)
	return sys, nil
}
