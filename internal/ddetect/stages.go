package ddetect

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file holds the five stage drivers the System composes into its
// per-tick pipeline (see internal/pipeline):
//
//	ingest    — site raises (stamping, simultaneity enforcement,
//	            journaling, bus hand-off) and watermark heartbeats
//	transport — batch-draining the bus and restoring per-link FIFO
//	            order in each site's reorderer
//	release   — watermark release of stable events into per-site
//	            detect inboxes
//	detect    — running every site's detector graph over its inbox,
//	            optionally in parallel across sites (pipeline.Pool)
//	publish   — subscriber fan-out, hierarchical forwarding and stats,
//	            in deterministic site order
//
// Only the detect stage runs off the crank goroutine, and it confines
// every write to per-site state (the detector, the site's inbox and
// detected buffers).  Everything that touches shared state — the bus,
// the RNG behind it, the Stats counters, user handlers — happens in the
// single-threaded stages, in site-ID order, so the sequence of
// side-effects is identical whatever the worker count: the determinism
// argument for the per-tick barrier.

// ingestStage drives the raise path and the heartbeat cadence.  Raises
// happen between ticks (the application calls Site.Raise); the stage's
// Tick emits due heartbeats and accounts the raises since the last tick.
type ingestStage struct {
	sys *System
	// raised counts Site.Raise calls since the last tick, for the
	// stage's item accounting.
	raised int
}

func (st *ingestStage) Name() string { return "ingest" }

// Tick queues due watermark heartbeats — each site's global time read at
// the nominal heartbeat instant — and then flushes the link coalescer:
// everything queued since the last flush (raises between ticks plus these
// heartbeats) leaves as one batch per link.  Per-link order is raises
// first, heartbeats second, exactly the per-link send order of the
// unbatched transport.
//
//lint:allow stagefx — ingest runs single-threaded on the crank goroutine before the detect barrier; its heartbeat counters and coalescer flush execute in deterministic site/link order regardless of worker count
//sentinel:hotpath
func (st *ingestStage) Tick(now clock.Microticks) int {
	sys := st.sys
	n := st.raised
	st.raised = 0
	for sys.nextHB <= now {
		for _, s := range sys.sites {
			if s.crashed {
				continue
			}
			g := s.clk.GlobalTick(s.clk.LocalTick(sys.nextHB))
			s.re.setFrontier(s.idx, g)
			// Only the event sinks (sites in some needers list) gate
			// their watermark on remote frontiers; heartbeating anyone
			// else would advance a frontier nothing waits on (see
			// System.seal).  RaisedAt carries the nominal heartbeat
			// instant — the reference the wire codec delta-encodes the
			// frontier against in Serialize mode.
			for _, dst := range sys.hbSinks {
				if dst == s {
					continue
				}
				sys.coal.add(s.idx, dst.idx, envelope{Kind: envHeartbeat, Global: g, RaisedAt: sys.nextHB})
				sys.stats.Heartbeats++
				n++
			}
		}
		sys.nextHB += sys.cfg.HeartbeatEvery
	}
	sys.coal.flush(now)
	return n
}

// raise is the ingest half of Site.Raise: stamp, enforce the Section 3.1
// simultaneity assumptions, journal, and hand the occurrence to the
// transport (the link coalescer, flushed at the next ingest tick) or the
// site's own stream.  With Serialize on, encodability is checked here,
// eagerly — the encoding itself happens at the deferred flush, and a
// failure there would be detached from the raise that caused it.
//
//lint:allow stagefx — raise is called by the application between ticks, never from a detect worker; its coalescer adds and counters are serialized on the caller's goroutine while no stage is running
func (st *ingestStage) raise(s *Site, typ string, class event.Class, params event.Params) (*event.Occurrence, error) {
	sys := st.sys
	sys.seal()
	typeID := sys.reg.TypeID(typ)
	if typeID == 0 {
		return nil, fmt.Errorf("%w: %q", event.ErrUnknownType, typ)
	}
	if s.crashed {
		return nil, fmt.Errorf("%w: %q", ErrCrashed, s.ID)
	}
	var occ *event.Occurrence
	if pool := sys.opool; pool != nil {
		// Pooled raise: the occurrence, its singleton stamp and the
		// interned component (filled from the site's dense index — no
		// roster lookup) come from recycled storage; params stay
		// caller-owned.  The creator reference is dropped below once the
		// deliveries hold their own.
		occ = pool.GetPrimitive(typ, class, s.StampNow(), s.idx, params)
	} else {
		occ = event.NewPrimitive(typ, class, s.StampNow(), params)
	}
	// The existence check above already paid the name lookup; carrying
	// the dense ID from here on keeps every downstream dispatch — local
	// delivery and each receiving site's detector — string-free.
	occ.TypeID = typeID
	if sys.cfg.Serialize {
		if err := wire.ValidateOccurrence(occ); err != nil {
			return nil, fmt.Errorf("ddetect: occurrence not encodable: %w", err)
		}
	}
	if sys.cfg.EnforceSimultaneity && (class == event.Database || class == event.Explicit) {
		if s.lastLocal == nil {
			s.lastLocal = make(map[event.Class]int64)
		}
		local := occ.Stamp[0].Local
		if last, seen := s.lastLocal[class]; seen && last == local {
			return nil, fmt.Errorf("%w: %s at %s, local tick %d", ErrSimultaneous, class, s.ID, local)
		}
		s.lastLocal[class] = local
	}
	if sys.journal != nil {
		if err := sys.journal.Append(occ); err != nil {
			return nil, fmt.Errorf("ddetect: journal: %w", err)
		}
	}
	now := sys.clk.Now()
	env := envelope{Kind: envEvent, Occ: occ, RaisedAt: now}
	sys.stats.Raised++
	st.raised++
	// First stage crossing: no leg to attribute yet, just stamp the mark.
	occ.Mark = event.MarkRaise
	occ.MarkAt = int64(now)
	if sys.smp != nil {
		sys.decideSample(occ)
	}
	if tr := sys.tr; tr != nil && occ.Sample != event.SampleDrop {
		var detail string
		if tr.Active() {
			detail = occ.Stamp.String()
		}
		tr.Emit(obs.SpanEvent{ID: tr.ID(occ, occ.Gen()), At: int64(now), Kind: obs.KindRaise,
			Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: typ, Detail: detail})
	}
	needers := sys.needersIdx[typ]
	if len(needers) == 0 {
		sys.stats.Unconsumed++
		return occ, nil
	}
	for _, dst := range needers {
		if dst == s.idx {
			s.selfDeliver(env)
		} else {
			sys.coal.add(s.idx, dst, env)
			sys.stats.Forwarded++
			sys.inFlightEvents++
		}
	}
	// Drop the creator's reference: the deliveries queued above hold their
	// own.  The returned occurrence is a borrow, valid until the detect
	// stage consumes the deliveries in a later Step; an unconsumed raise
	// (the early return above) keeps the creator reference and stays a
	// plain heap borrow forever.
	occ.Release()
	return occ, nil
}

// transportStage drains the bus in one batch per tick, unpacks each
// message's payload — a coalesced envelope run, a serialized batch frame,
// or a single envelope in the differential unbatched mode — and feeds the
// envelopes into the destination site's reorderer, which restores
// per-link FIFO order.  The drain and decode scratch slices are reused
// across ticks, and unpacked batch containers go back to the coalescer's
// free lists.
type transportStage struct {
	sys     *System
	batch   []network.Message
	decoded []envelope
	// now is the current tick's simulated time, stashed by Tick so the
	// accept helpers can stamp recv spans without threading it through.
	now clock.Microticks
}

func (st *transportStage) Name() string { return "transport" }

// Tick drains due messages into per-site reorderers; the count it reports
// is envelopes, not bus messages.
//
//sentinel:hotpath
func (st *transportStage) Tick(now clock.Microticks) int {
	sys := st.sys
	st.now = now
	st.batch = sys.bus.DrainDue(now, st.batch[:0])
	n := 0
	for i := range st.batch {
		m := &st.batch[i]
		// The bus carries dense indexes once the roster is attached (at
		// seal, before any traffic); resolving the destination is one
		// slice index, no string hash.
		if m.ToSite < 0 || int(m.ToSite) >= len(sys.sites) {
			//lint:allow hotalloc — panic message on a routing bug; never formats on the steady path
			panic(fmt.Sprintf("ddetect: message to unknown site %q", m.To))
		}
		dst := sys.sites[m.ToSite]
		switch p := m.Payload.(type) {
		case *envRun:
			st.acceptRun(dst, m.FromSite, m.From, m.Seq, p.envs)
			n += len(p.envs)
			sys.coal.recycleEnvs(p.envs)
			sys.coal.recycleRun(p)
		case []byte:
			if wire.IsBatch(p) {
				st.decoded = st.decoded[:0]
				//lint:allow hotalloc — DecodeBatch allocates only when rejecting a corrupt frame, and the panic below formats only then
				if err := sys.codec.DecodeBatch(p, st.collect); err != nil {
					//lint:allow hotalloc — panic message on a corrupt batch; never formats on the steady path
					panic(fmt.Sprintf("ddetect: corrupt batch: %v", err))
				}
				st.acceptRun(dst, m.FromSite, m.From, m.Seq, st.decoded)
				n += len(st.decoded)
				clear(st.decoded)
				sys.coal.recycleBuf(p)
				break
			}
			st.acceptOne(dst, m.FromSite, m.From, m.Seq, sys.unpayload(p))
			n++
		default:
			st.acceptOne(dst, m.FromSite, m.From, m.Seq, sys.unpayload(p))
			n++
		}
		m.Payload = nil
	}
	if sys.draining > 0 {
		sys.settleDrains()
	}
	return n
}

// collect is the streaming DecodeBatch callback, hoisted to a method so
// the per-message decode loop allocates no closure.
func (st *transportStage) collect(we wire.Envelope) error {
	env := envelope{Global: we.Global, RaisedAt: clock.Microticks(we.RaisedAt)}
	if we.Kind == wire.KindEvent {
		env.Kind = envEvent
		env.Occ = we.Occ
	} else {
		env.Kind = envHeartbeat
	}
	st.decoded = append(st.decoded, env)
	return nil
}

// acceptRun hands one coalesced envelope run to the reorderer.  The dense
// from index feeds the reorderer; the string peer only labels spans.
func (st *transportStage) acceptRun(dst *Site, from core.Site, peer core.SiteID, seq uint64, envs []envelope) {
	sys := st.sys
	for _, env := range envs {
		if env.Kind == envEvent {
			sys.inFlightEvents--
			sys.acceptEvent(env.Occ, dst, peer, st.now)
		}
	}
	if err := dst.re.acceptBatch(from, seq, envs); err != nil {
		panic(err) // bus sequencing guarantees make this unreachable
	}
}

// acceptOne hands one single-envelope message to the reorderer.
func (st *transportStage) acceptOne(dst *Site, from core.Site, peer core.SiteID, seq uint64, env envelope) {
	if env.Kind == envEvent {
		st.sys.inFlightEvents--
		st.sys.acceptEvent(env.Occ, dst, peer, st.now)
	}
	if err := dst.re.accept(from, seq, env); err != nil {
		panic(err) // bus sequencing guarantees make this unreachable
	}
}

// acceptEvent applies the per-arrival observability: the recv latency
// mark, the serialize-mode sample recomputation (a decoded occurrence is
// a fresh object whose in-memory sample bit did not travel — the
// decision is a pure function of raise identity, so recomputing it here
// yields the bit the origin stamped), and the recv span.
//
//sentinel:hotpath
func (sys *System) acceptEvent(occ *event.Occurrence, dst *Site, peer core.SiteID, now clock.Microticks) {
	if occ.Sample == event.SampleUndecided && sys.smp != nil {
		sys.decideSample(occ)
	}
	sys.mark(occ, event.MarkRecv, now)
	if tr := sys.tr; tr != nil && occ.Sample != event.SampleDrop {
		tr.Emit(obs.SpanEvent{ID: tr.ID(occ, occ.Gen()), At: int64(now), Kind: obs.KindRecv,
			Site: string(dst.ID), SiteRef: int32(dst.idx) + 1, Peer: string(peer), Type: occ.Type})
	}
}

// releaseStage pops every watermark-stable event, in each site's
// deterministic (global, site, local, arrival) order, into the site's
// detect inbox, accounting raise-to-release latency.
//
// The stage runs in two phases.  The advance phase fans the per-site
// reorderer stepping — the stale-flag check, the frontier minimum, the
// sift-heavy heap pops — across the worker pool; each worker appends its
// own site's stable envelopes to that site's released buffer, touching
// nothing shared.  The accounting phase then walks the sites in ID order
// on the crank goroutine and applies every observable side effect — the
// Stats counters, the latency histogram, the trace spans, the inbox
// append — exactly as the sequential loop did, so the history is
// byte-identical (spans included) for every worker count.
type releaseStage struct {
	sys *System
}

func (st *releaseStage) Name() string { return "release" }

// Tick releases watermark-stable events into the detect inboxes.
//
//lint:allow stagefx — the accounting loop below runs single-threaded on the crank goroutine; the fanned-out advance phase touches only per-site reorderer state and per-site buffers
//sentinel:hotpath
func (st *releaseStage) Tick(now clock.Microticks) int {
	sys := st.sys
	sites := sys.sites
	sys.pool.Run(len(sites), func(i int) {
		s := sites[i]
		s.released = s.re.releaseInto(sys.cfg.Release, s.released[:0])
	})
	n := 0
	for _, s := range sites {
		if len(s.released) == 0 {
			continue
		}
		for _, env := range s.released {
			sys.stats.Released++
			lat := now - env.RaisedAt
			sys.stats.LatencySum += lat
			if lat > sys.stats.LatencyMax {
				sys.stats.LatencyMax = lat
			}
			sys.hRelease.Observe(int64(lat))
			sys.mark(env.Occ, event.MarkRelease, now)
			if tr := sys.tr; tr != nil && env.Occ.Sample != event.SampleDrop {
				tr.Emit(obs.SpanEvent{ID: tr.ID(env.Occ, env.Occ.Gen()), At: int64(now), Kind: obs.KindRelease,
					Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: env.Occ.Type})
			}
			s.inbox = append(s.inbox, env.Occ)
		}
		n += len(s.released)
		clear(s.released)
		s.released = s.released[:0]
	}
	return n
}

// detectStage runs every site's detector over its released inbox, fires
// due detector timers and hands the detector its reorderer's release
// horizon — in parallel across sites when the pool has workers.  Workers
// confine their writes to the site they own: the detector graph, the
// reorderer's cached frontier minimum (refreshed by the horizon read),
// the inbox they drain and the detected buffer the System's
// per-definition recorder appends to.  Detections are NOT published
// here; they are buffered per site and handed to the publish stage, so
// user handlers, stats and bus traffic stay on the crank goroutine and
// in deterministic site order.
type detectStage struct {
	sys *System
	// active is the reused shard list: the sites with a non-empty inbox
	// or an armed detector timer this tick.  For an idle site both
	// PublishBatch (empty batch) and AdvanceTo (no timers) are no-ops, so
	// skipping it changes nothing except the work: at thousands of sites
	// the stage touches only the handful that heard something.  Built by
	// iterating sys.sites in ID order, so the shard keeps the
	// deterministic site order the barrier argument relies on.
	active []*Site
}

func (st *detectStage) Name() string { return "detect" }

//sentinel:hotpath
func (st *detectStage) Tick(now clock.Microticks) int {
	sys := st.sys
	n := 0
	active := st.active[:0]
	for _, s := range sys.sites {
		if len(s.inbox) > 0 || s.det.PendingTimers() > 0 {
			active = append(active, s)
			n += len(s.inbox)
		}
	}
	st.active = active
	sys.pool.Run(len(active), func(i int) {
		s := active[i]
		s.det.PublishBatch(s.inbox)
		// Dispatch done: drop the delivery references taken at coal.add /
		// selfDeliver.  Whatever the graph buffered holds its own.
		for j, o := range s.inbox {
			s.inbox[j] = nil
			o.Release()
		}
		s.inbox = s.inbox[:0]
		s.det.AdvanceTo(now)
		// Everything this tick delivers and fires is in; what the detector
		// sees from here on lies at or above the horizon, so it may drop
		// the state that bound proves dead.
		if s.reclaims {
			if h, ok := s.re.horizon(); ok {
				s.det.SetHorizon(h)
			}
		}
	})
	return n
}

// publishStage completes each buffered detection on the crank goroutine,
// iterating sites in ID order: count it, fan it out to System.Subscribe
// handlers, and forward it to remote sites whose definitions reference it
// by name (hierarchical mode).  Running after the detect barrier keeps
// the bus send order — and hence the seeded jitter/loss schedule —
// independent of the worker count.
type publishStage struct {
	sys *System
}

func (st *publishStage) Name() string { return "publish" }

//sentinel:hotpath
func (st *publishStage) Tick(now clock.Microticks) int {
	sys := st.sys
	n := 0
	for _, s := range sys.sites {
		// The full-site scan stays (an active list here would change when
		// handler-injected detections at already-visited sites drain,
		// breaking byte-parity with the sequential history); the common
		// idle site costs one length check.
		if len(s.detected) == 0 {
			continue
		}
		// Index loop: a handler that publishes into this site's detector
		// can append further detections mid-drain; they are completed in
		// the same tick.
		for i := 0; i < len(s.detected); i++ {
			o := s.detected[i]
			sys.stats.Detections++
			// Detection latency in event time: how far past the newest
			// global granule in its Max-set timestamp this detection
			// published.  A pure function of simulated time and the
			// composite timestamp, so identical across worker counts and
			// transport modes.
			lat := now - clock.Microticks(o.Stamp.MaxGlobal())*sys.cfg.Clock.GlobalGranularity
			if lat < 0 {
				lat = 0
			}
			if ds := sys.defStats[o.Type]; ds != nil {
				ds.Detections++
				ds.LatencySum += lat
				if lat > ds.LatencyMax {
					ds.LatencyMax = lat
				}
			}
			sys.hDetect.Observe(int64(lat))
			sys.observeHold(o, now)
			if sys.smp != nil {
				sys.decideSample(o)
			}
			if tr := sys.tr; tr != nil && o.Sample != event.SampleDrop {
				links := tr.LinkBuf()
				for _, c := range o.Constituents {
					links = append(links, tr.ID(c, c.Gen()))
				}
				var detail string
				if tr.Active() {
					detail = o.Stamp.String()
				}
				id := tr.ID(o, o.Gen())
				tr.Emit(obs.SpanEvent{ID: id, At: int64(now), Kind: obs.KindDetect,
					Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: o.Type, Detail: detail, Links: links})
				tr.KeepLinkBuf(links)
				tr.Emit(obs.SpanEvent{ID: id, At: int64(now), Kind: obs.KindPublish,
					Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: o.Type})
			}
			// A detection's publish is its raise as far as downstream legs
			// are concerned: hierarchical forwards attribute raise→send,
			// send→recv, … like any primitive from here.
			o.Mark = event.MarkRaise
			o.MarkAt = int64(now)
			hs := sys.handlers[o.Type]
			for _, h := range hs {
				h(o)
			}
			sys.forwardComposite(s, o)
			// Drop the recorder's reference.  Handlers have run by now:
			// System.Subscribe's contract is a borrow — the occurrence is
			// valid for the duration of each handler call, and a handler
			// that keeps the pointer must Retain it — so publish is where
			// the detection's tree returns to the pool.
			o.Release()
			n++
		}
		clear(s.detected)
		s.detected = s.detected[:0]
	}
	// Flush the hierarchical forwards (and anything a handler raised)
	// queued above: one batch per link per tick.
	sys.coal.flush(now)
	return n
}
