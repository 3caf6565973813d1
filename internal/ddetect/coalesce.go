package ddetect

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/wire"
)

// linkCoalescer accumulates the envelopes bound for each (from,to) link
// and hands them to the bus in per-tick batches: one Message — one
// latency/jitter/loss draw, one link sequence number, one wire frame when
// serializing — per link per flush, instead of one per (occurrence,
// destination).  The ingest and publish stages are its only producers
// (Site.Raise between ticks, heartbeats and hierarchical forwards during
// their Ticks), and each flushes at the end of its Tick, so everything a
// tick emits onto a link travels as one frame.
//
// Batching is a pure transport optimization: per-link envelope order is
// exactly the per-link send order the unbatched system produced, the
// receiving reorderer unpacks a batch back into individual envelopes
// before FIFO restore, and — the property TestBatchingDeterminism pins —
// the delivery schedule is byte-identical with batching disabled, because
// the differential mode (Config.DisableBatching → Bus.SendUnbatched)
// consumes the same one draw per link flush.
//
// All methods run on the crank goroutine (stages are single-threaded and
// Raise is a between-ticks call), so the free lists need no locking.  The
// flush methods are the only code in this package allowed to call the
// Bus's send methods — enforced by the stagefx analyzer.
type linkCoalescer struct {
	sys *System
	// byLink indexes the accumulating batches by packed (from,to) roster
	// index pair — an integer-keyed map, so the per-envelope add hashes
	// two int32s instead of two strings.
	byLink map[uint64]*linkBatch
	// order lists the links with pending envelopes in first-use order —
	// deterministic, since every add happens on the crank goroutine —
	// and is the flush iteration order (the byLink map is lookup-only:
	// map iteration order must never reach the bus).
	order []*linkBatch

	// freeEnvs recycles flushed batch slices for in-memory payloads; the
	// transport stage returns each slice after unpacking it.  freeRuns
	// recycles the envRun boxes every batch ships in, runs counts the
	// boxes ever allocated (all of them are on freeRuns whenever the bus
	// is empty), and wenvs is the reused wire-envelope staging slice for
	// batch encoding.
	freeEnvs [][]envelope
	freeRuns []*envRun
	runs     int
	wenvs    []wire.Envelope
}

// envRun is the bus payload of a coalesced batch: the envelope run itself
// in memory, or its encoded wire frame when serializing.  Boxing the run
// as a pointer costs nothing per flush; boxing a slice header — the
// []envelope run, or the []byte frame — directly into the Message's any
// field copied it to the heap on every send, once the largest allocation
// site of the end-to-end profiles.  The frame buffer stays with its box
// across recycling, so a steady stream of frames reuses the same bytes.
type envRun struct {
	envs  []envelope
	frame []byte
}

// linkBatch is one link's accumulating envelope run, addressed by dense
// roster indexes.
type linkBatch struct {
	from, to core.Site
	envs     []envelope
}

func newLinkCoalescer(sys *System) *linkCoalescer {
	return &linkCoalescer{sys: sys, byLink: make(map[uint64]*linkBatch)}
}

// packLink packs a (from,to) roster index pair into one map key.
func packLink(from, to core.Site) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// add queues one envelope for the (from,to) link, to be sent at the next
// flush.  An event envelope's queued pointer is a stored reference: add is
// the single choke point through which every remote delivery passes —
// raises, heartbeat-era forwards, hierarchical composite forwards — so the
// transport's Retain lives here and is dropped wherever the envelope's
// journey ends (the detect stage after dispatch for in-memory payloads,
// the serializing flush after encoding).
//
//sentinel:hotpath
func (c *linkCoalescer) add(from, to core.Site, env envelope) {
	if env.Kind == envEvent {
		env.Occ.Retain()
	}
	k := packLink(from, to)
	lb := c.byLink[k]
	if lb == nil {
		lb = &linkBatch{from: from, to: to}
		c.byLink[k] = lb
	}
	if len(lb.envs) == 0 {
		if n := len(c.freeEnvs); n > 0 {
			lb.envs, c.freeEnvs = c.freeEnvs[n-1], c.freeEnvs[:n-1]
		}
		c.order = append(c.order, lb)
	}
	lb.envs = append(lb.envs, env)
}

// pending reports whether any link has unflushed envelopes.
func (c *linkCoalescer) pendingLinks() int { return len(c.order) }

// flush hands every pending link batch to the bus, in deterministic
// first-use link order, consuming exactly one delay/loss draw per link.
// It runs single-threaded on the crank goroutine (end of the ingest and
// publish Ticks); the stagefx analyzer recognizes linkCoalescer methods
// as the designated Bus senders.
func (c *linkCoalescer) flush(now clock.Microticks) {
	if len(c.order) == 0 {
		return
	}
	sys := c.sys
	for _, lb := range c.order {
		envs := lb.envs
		lb.envs = nil
		tr := sys.tr
		var from, to core.SiteID
		if tr != nil {
			from, to = sys.roster.ID(lb.from), sys.roster.ID(lb.to)
		}
		for _, env := range envs {
			if env.Kind != envEvent {
				continue
			}
			// The flush instant is the moment the occurrence actually hits
			// the bus: the raise→send latency mark and — when tracing, for
			// sampled lineages — one send span per event envelope
			// (heartbeats are perpetual noise and go unattributed).  Span
			// fields stay strings, so traces diff against old captures.
			sys.mark(env.Occ, event.MarkSend, now)
			if tr != nil && env.Occ.Sample != event.SampleDrop {
				tr.Emit(obs.SpanEvent{ID: tr.ID(env.Occ, env.Occ.Gen()), At: int64(now), Kind: obs.KindSend,
					Site: string(from), SiteRef: int32(lb.from) + 1, Peer: string(to), Type: env.Occ.Type})
			}
		}
		if sys.cfg.DisableBatching {
			// Differential mode: the same envelopes as per-envelope
			// messages with consecutive sequence numbers, under the one
			// shared draw SendBatchSite would have consumed.
			sys.bus.SendUnbatchedSite(now, lb.from, lb.to, len(envs), func(i int) any {
				return sys.payload(envs[i])
			})
			if sys.cfg.Serialize {
				// The wire frames carry copies; the originals' transport
				// references end here.  Unserialized payloads box the
				// envelope itself, so the reference rides the message.
				releaseOccs(envs)
			}
			c.recycleEnvs(envs)
			continue
		}
		// The link's batch ships in a pooled envRun box, which the
		// transport stage recycles after unpacking.  In memory, ownership
		// of the envelopes — and their occurrence references — transfers
		// to the box.  Serialized, the box carries the encoded frame in its
		// own reused buffer; the receiver decodes fresh occurrences, so the
		// in-memory originals' transport references end at the encode.
		run := c.getRun()
		if sys.cfg.Serialize {
			//lint:allow hotalloc — AppendBatch allocates only on its error path (unencodable batch), and the panic below formats only then
			frame, err := sys.codec.AppendBatch(run.frame[:0], c.stage(envs))
			if err != nil {
				//lint:allow hotalloc — panic message on a corrupt batch; never formats on the steady path
				panic(fmt.Sprintf("ddetect: batch not encodable: %v", err))
			}
			clear(c.wenvs) // drop the staged occurrence references
			run.frame = frame
			releaseOccs(envs)
			c.recycleEnvs(envs)
		} else {
			run.envs = envs
		}
		sys.bus.SendBatchSite(now, lb.from, lb.to, run, len(envs), len(run.frame))
	}
	c.order = c.order[:0]
}

// stage converts a run of internal envelopes to wire envelopes in the
// reused staging slice.
func (c *linkCoalescer) stage(envs []envelope) []wire.Envelope {
	wenvs := c.wenvs[:0]
	for _, env := range envs {
		we := wire.Envelope{Global: env.Global, RaisedAt: int64(env.RaisedAt)}
		if env.Kind == envEvent {
			we.Kind = wire.KindEvent
			we.Occ = env.Occ
		} else {
			we.Kind = wire.KindHeartbeat
		}
		wenvs = append(wenvs, we)
	}
	c.wenvs = wenvs
	return wenvs
}

// releaseOccs drops the transport's occurrence references after a run was
// serialized: the receiving side decodes fresh objects, so the in-memory
// originals' transport life ends at the encode.
func releaseOccs(envs []envelope) {
	for _, env := range envs {
		if env.Kind == envEvent {
			env.Occ.Release()
		}
	}
}

// recycleEnvs returns a flushed (or unpacked) batch slice to the free
// list, dropping its occurrence pointers first.
func (c *linkCoalescer) recycleEnvs(envs []envelope) {
	clear(envs)
	c.freeEnvs = append(c.freeEnvs, envs[:0])
}

// getRun pops a pooled envRun box for a flushed batch (allocating one
// when the free list is empty).  A recycled box keeps its frame buffer's
// capacity for the next serialized frame.
func (c *linkCoalescer) getRun() *envRun {
	n := len(c.freeRuns)
	if n == 0 {
		c.runs++
		return &envRun{}
	}
	run := c.freeRuns[n-1]
	c.freeRuns = c.freeRuns[:n-1]
	return run
}

// recycleRun returns an unpacked envRun box to the free list.
func (c *linkCoalescer) recycleRun(run *envRun) {
	run.envs = nil
	run.frame = run.frame[:0]
	c.freeRuns = append(c.freeRuns, run)
}
