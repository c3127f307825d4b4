package main

import (
	"repro/internal/cluster"
	"repro/internal/feedback"
	"repro/internal/serve"
	"repro/internal/stream"
)

// probes are the components whose public counters the per-layer
// metrics read, at the same boundaries the ladder times.
type probes struct {
	svcs    []*serve.Service
	streams []*stream.Server
	routers []*cluster.Router
	loops   []*feedback.Loop
}

func (p *probes) add(q *probes) {
	p.svcs = append(p.svcs, q.svcs...)
	p.streams = append(p.streams, q.streams...)
	p.routers = append(p.routers, q.routers...)
	p.loops = append(p.loops, q.loops...)
}

// counters is a sum of the probes' counters at one instant. A
// component added after the first snapshot counts from zero.
type counters struct {
	cacheHits, cacheMisses          uint64
	streamReqs, dispatches, holds   uint64
	rcacheHits, rcacheMisses        uint64
	affinity, spillover, shed, rErr uint64
	rejected                        uint64
}

func (p *probes) snapshot() counters {
	var c counters
	for _, s := range p.svcs {
		m := s.Metrics()
		c.cacheHits += m.Cache.Hits
		c.cacheMisses += m.Cache.Misses
	}
	for _, s := range p.streams {
		st := s.Stats()
		c.streamReqs += st.Requests
		c.dispatches += st.Dispatches
		c.holds += st.Holds
	}
	for _, rt := range p.routers {
		m := rt.Metrics()
		c.rcacheHits += m.Cache.Hits
		c.rcacheMisses += m.Cache.Misses
		c.affinity += m.Decisions.Affinity
		c.spillover += m.Decisions.Spillover
		c.shed += m.Decisions.Shed
		for _, rp := range m.Replicas {
			c.rErr += rp.Errors
		}
	}
	for _, l := range p.loops {
		c.rejected += l.Rejected()
	}
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		streamReqs: c.streamReqs - b.streamReqs, dispatches: c.dispatches - b.dispatches, holds: c.holds - b.holds,
		rcacheHits: c.rcacheHits - b.rcacheHits, rcacheMisses: c.rcacheMisses - b.rcacheMisses,
		affinity: c.affinity - b.affinity, spillover: c.spillover - b.spillover, shed: c.shed - b.shed, rErr: c.rErr - b.rErr,
		rejected: c.rejected - b.rejected,
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c counters) report(r *report) {
	r.layer("serve.cache_hit_ratio", ratio(c.cacheHits, c.cacheHits+c.cacheMisses), "share")
	r.layer("stream.batch_fill", ratio(c.streamReqs, c.dispatches), "plans")
	r.layer("stream.holds_per_dispatch", ratio(c.holds, c.dispatches), "count")
	r.layer("cluster.cache_hit_ratio", ratio(c.rcacheHits, c.rcacheHits+c.rcacheMisses), "share")
	r.layer("cluster.affinity_share", ratio(c.affinity, c.affinity+c.spillover+c.shed), "share")
	r.layer("cluster.shed", float64(c.shed), "count")
	r.layer("cluster.replica_errors", float64(c.rErr), "count")
	r.layer("feedback.rejected", float64(c.rejected), "count")
}
