package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// routed-point: admission control asking for single-plan CPU+IO
// estimates through the router's streaming listener, in front of two
// replicas that own four schemas each.
const (
	routedReplicas   = 2
	routedSchemasPer = 4
	// routedPool TPC-H plans under eight schemas make twice as many
	// distinct request bodies as the router's response cache holds, so
	// its hit ratio settles below one and the misses, which pay the
	// replica hop and the coalescing wait, are a steady share of every
	// window rather than a warm-up effect.
	routedPool      = 1024
	routedZipf      = 1.1   // skew of plan popularity
	routedRate      = 400.0 // open-loop arrivals per second
	routedWindows   = 8
	routedOpenShare = 0.6  // share of the run spent in the open loop
	routedDepth     = 4    // closed-loop requests in flight per connection
	routedWarm      = 1024 // Zipf warm-up requests, after every body once
)

type routedStack struct {
	replicas []*replica
	owner    map[string]*replica // schema → replica the ring picks
	rt       *cluster.Router
	clients  []*stream.Client // to the router's stream listener
	m        *models
	schemas  []string
	plans    []*plan.Plan
	bodies   [][]byte // [schema*len(plans)+plan]
	or       *oracle
}

// request is one drawn request: a schema and a plan of the pool.
type request struct{ schema, plan int }

func setupRouted(e *env, dir string, st *setupTimes) (stack, error) {
	s := &routedStack{owner: make(map[string]*replica)}
	var err error
	if s.m, err = trainModels(st); err != nil {
		return nil, err
	}
	s.plans = tpchPlans(e.seed, "routed-pool", routedPool)
	execute(engine.New(nil), s.plans)
	s.or = newOracle(s.plans)
	if err := s.or.prime(s.m); err != nil {
		return nil, err
	}
	// Bind the replicas' HTTP listeners first: their addresses are the
	// ring's members, and the schemas must be chosen (and published)
	// before the replicas restore from the store.
	lns := make([]net.Listener, routedReplicas)
	addrs := make([]string, routedReplicas)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeListeners(lns)
			return nil, err
		}
		addrs[i] = lns[i].Addr().String()
	}
	owned := ownedSchemas(addrs, routedSchemasPer)
	for _, group := range owned {
		s.schemas = append(s.schemas, group...)
	}
	s.bodies = make([][]byte, len(s.schemas)*len(s.plans))
	for si, schema := range s.schemas {
		for pi, p := range s.plans {
			if s.bodies[si*len(s.plans)+pi], err = estimateBody(schema, p); err != nil {
				closeListeners(lns)
				return nil, err
			}
		}
	}
	storeDir := filepath.Join(dir, "store")
	if err := publishModels(storeDir, s.schemas, s.m, st); err != nil {
		closeListeners(lns)
		return nil, err
	}
	st.heapBase = heapInuse()
	for i, ln := range lns {
		reg, infos, err := restoreRegistry(storeDir, st)
		if err == nil {
			err = learnRestored(s.or, infos, s.m)
		}
		if err != nil {
			closeListeners(lns[i:])
			s.close()
			return nil, err
		}
		rp, err := startReplica(reg, ln)
		if err != nil {
			closeListeners(lns[i+1:])
			s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, rp)
		for _, schema := range owned[i] {
			s.owner[schema] = rp
		}
	}
	if s.rt, err = cluster.New(cluster.Options{Replicas: addrs}); err != nil {
		s.close()
		return nil, err
	}
	raddr, err := s.rt.StartStream("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < e.conns; i++ {
		cl, err := stream.Dial(raddr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	// Warm-up: a system that has been serving this plan population for
	// a while. Every body once fills the replicas' prediction caches,
	// which hold them all; Zipf traffic then leaves the router's cache
	// holding what it would in steady state.
	warm := make([]request, 0, len(s.bodies)+routedWarm)
	for i := range s.bodies {
		warm = append(warm, request{schema: i / len(s.plans), plan: i % len(s.plans)})
	}
	warm = append(warm, s.draws(e.seed, "routed-warm", routedWarm)...)
	workers := len(s.clients) * routedDepth
	o := s.op(warm, workers)
	if err := forEach(workers, len(warm), func(i, w int) error {
		_, err := o.do(i, w)
		return err
	}); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// ownedSchemas names perReplica schemas for each replica address, in
// addrs order, by walking candidate names through the same ring the
// router builds: placement is exact, not left to hash luck.
func ownedSchemas(addrs []string, perReplica int) [][]string {
	ring := cluster.NewRing(addrs, 0)
	idx := make(map[string]int, len(addrs))
	for i, a := range addrs {
		idx[a] = i
	}
	out := make([][]string, len(addrs))
	for i, full := 0, 0; full < len(addrs); i++ {
		name := fmt.Sprintf("s%03d", i)
		k := idx[ring.Pick(name)]
		if len(out[k]) == perReplica {
			continue
		}
		out[k] = append(out[k], name)
		if len(out[k]) == perReplica {
			full++
		}
	}
	return out
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// draws returns n requests: plans Zipf-skewed over the pool, schemas
// uniform.
func (s *routedStack) draws(seed uint64, stream string, n int) []request {
	rng := newRand(seed, stream)
	plans := zipfDraws(rng, routedZipf, len(s.plans), n)
	out := make([]request, n)
	for i := range out {
		out[i] = request{schema: rng.IntN(len(s.schemas)), plan: plans[i]}
	}
	return out
}

// op sends reqs[i mod len(reqs)] through the router: worker w uses
// client w mod len(clients) and keeps its response in slot w.
func (s *routedStack) op(reqs []request, workers int) op {
	resp := make([][]byte, workers)
	return op{
		send: func(i, w int) (err error) {
			rq := reqs[i%len(reqs)]
			resp[w], err = s.clients[w%len(s.clients)].EstimateBytes(context.Background(), s.bodies[rq.schema*len(s.plans)+rq.plan])
			return err
		},
		check: func(i, w int) error { return s.or.checkBody(reqs[i%len(reqs)].plan, resp[w]) },
	}
}

func (s *routedStack) measure(e *env, r *report) error {
	per := time.Duration(e.seconds) * time.Second / routedWindows
	p := phases{n: routedWindows, rate: routedRate, arrivals: newRand(e.seed, "routed-arrivals"),
		openDur: time.Duration(float64(per) * routedOpenShare), closed: time.Duration(float64(per) * (1 - routedOpenShare)),
		senders: len(s.clients), workers: len(s.clients) * routedDepth}
	open := s.draws(e.seed, "routed-open", p.n*p.openPerWindow())
	closed := s.draws(e.seed, "routed-closed", 1<<17)
	rs, warm := p.run(e.traced("routed.estimate", s.op(open, p.senders)), s.op(closed, p.workers))
	openS, closedS := flatten(rs, true), flatten(rs, false)
	r.count(openS)
	r.count(warm)
	r.count(closedS)
	r.note("routed: an open loop at %.0f/s, then a closed loop of %d conns x depth %d, each in %d windows",
		routedRate, len(s.clients), routedDepth, p.n)
	r.estimates(rs, 1)
	r.lag(openS)
	e.overhead(r, openS)
	sent := append(open[:len(open):len(open)], closed[:min(len(closed), len(warm)+len(closedS))]...)
	repeatShare(r, sent, func(rq request) int { return rq.plan })

	share, err := s.or.within2x(s.currentModels(s.schemas[0]))
	if err != nil {
		return err
	}
	r.e2e("within_2x_share", share, "share")
	r.layer("workload.scaled_share", scaledShare(s.m.cpu, s.plans), "share")
	return nil
}

// currentModels returns the CPU and IO model infos schema is served
// with on its owning replica.
func (s *routedStack) currentModels(schema string) []serve.ModelInfo {
	reg := s.owner[schema].svc.Registry()
	var out []serve.ModelInfo
	for _, k := range bothResources {
		if m, ok := reg.Lookup(schema, k); ok {
			out = append(out, m.Info)
		}
	}
	return out
}

func (s *routedStack) oracle() *oracle { return s.or }

func (s *routedStack) probes() *probes {
	p := &probes{routers: []*cluster.Router{s.rt}}
	for _, rp := range s.replicas {
		p.svcs = append(p.svcs, rp.svc)
		p.streams = append(p.streams, rp.ss)
	}
	return p
}

// ladder drives the workload's own requests one at a time through the
// replica that owns each request's schema, and through a router over
// the same replicas with its response cache off, so that cluster.routed
// does the work of stream.direct plus the forwarding hop.
func (s *routedStack) ladder(e *env) (*ladder, error) {
	sample := s.draws(e.seed, "routed-ladder", ladderSample)
	l := &ladder{set: mustSet(s.m), or: s.or, plans: s.plans, warm: true, probes: &probes{}}
	direct := make(map[*replica]*stream.Client)
	addrs := make([]string, len(s.replicas))
	for i, rp := range s.replicas {
		addrs[i] = rp.addr
		cl, err := stream.Dial(rp.ss.Addr())
		if err != nil {
			l.close()
			return nil, err
		}
		direct[rp] = cl
		l.closers = append(l.closers, func() { cl.Close() })
	}
	rt, routed, err := startUncachedRouter(addrs)
	if err != nil {
		l.close()
		return nil, err
	}
	l.closers = append(l.closers, func() { routed.Close(); rt.Close() })
	l.probes.routers = append(l.probes.routers, rt)
	obsPlans := tpchPlans(e.seed, "routed-ladder-obs", ladderSample)
	execute(engine.New(nil), obsPlans)
	if err := l.addObserve(filepath.Join(e.dir, "ladder-obs"), s.replicas[0].svc.Registry(), s.schemas[0], obsPlans); err != nil {
		l.close()
		return nil, err
	}
	for _, rq := range sample {
		schema := s.schemas[rq.schema]
		rp := s.owner[schema]
		l.reqs = append(l.reqs, ladderReq{
			plan: rq.plan, schema: schema, body: s.bodies[rq.schema*len(s.plans)+rq.plan],
			svc: rp.svc, httpAddr: rp.addr, direct: direct[rp], routed: routed,
		})
	}
	return l, nil
}

// startUncachedRouter starts a router over addrs with its response
// cache off, and a client of its stream listener, for the ladder.
func startUncachedRouter(addrs []string) (*cluster.Router, *stream.Client, error) {
	rt, err := cluster.New(cluster.Options{Replicas: addrs, CacheEntries: -1})
	if err != nil {
		return nil, nil, err
	}
	raddr, err := rt.StartStream("127.0.0.1:0")
	if err == nil {
		var cl *stream.Client
		if cl, err = stream.Dial(raddr); err == nil {
			return rt, cl, nil
		}
	}
	rt.Close()
	return nil, nil, err
}

func (s *routedStack) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, rp := range s.replicas {
		rp.close()
	}
}
