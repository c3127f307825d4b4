package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// whatif-batch: an embedded optimizer costing candidate plans through
// serve.Service.EstimateBatch, in process, one caller, closed loop.
const (
	// whatifCacheCapacity is serve's default prediction-cache size; the
	// pool holds at least twice as many distinct operator vectors.
	whatifCacheCapacity = 65536
	whatifChunk         = 256 // plans generated per schema per generation round
	// whatifWindows keeps at least 1000 batches in a window of a
	// 40-second run, enough for a p99 with ten samples beyond it.
	whatifWindows = 5
	whatifWarm    = 4 // batches sent in set-up
)

// crossWorkloads are the cross-workload generators at the scale
// factors the paper's TPC-DS/Real-1/Real-2 test sets use: 3–5x beyond
// the largest TPC-H training table.
var crossWorkloads = []struct {
	schema           string
	sfs              []float64
	minJoin, maxJoin int
}{
	{"tpcds", []float64{64, 96}, 2, 5},
	{"real1", []float64{60, 90}, 4, 7},
	{"real2", []float64{72, 110}, 8, 11},
}

type whatifStack struct {
	reg   *serve.Registry
	svc   *serve.Service
	m     *models
	plans []*plan.Plan
	or    *oracle
}

// whatifPlans generates cross-workload plans, round-robin over the
// three generators, until the pool holds 2x the cache's capacity in
// distinct operator vectors; the pool is a whole number of batches.
func whatifPlans(seed uint64) []*plan.Plan {
	var out []*plan.Plan
	seen := make(map[features.Vector]struct{})
	for round := 0; len(seen) < 2*whatifCacheCapacity || len(out)%whatifBatch != 0; round++ {
		for _, w := range crossWorkloads {
			cfg := workload.DefaultConfig()
			cfg.N = whatifChunk
			cfg.SFs = w.sfs
			cfg.Seed = workloadSeed(seed, fmt.Sprintf("whatif-%s-%d", w.schema, round))
			for _, q := range workload.GenGeneric(w.schema, cfg, w.minJoin, w.maxJoin) {
				out = append(out, q.Plan)
				for _, v := range features.ExtractPlan(q.Plan, features.Exact) {
					seen[v] = struct{}{}
				}
			}
		}
	}
	return out
}

// whatifSchema names the generator plan i of the pool came from.
func whatifSchema(i int) string {
	return crossWorkloads[(i/whatifChunk)%len(crossWorkloads)].schema
}

func setupWhatif(e *env, dir string, st *setupTimes) (stack, error) {
	s := &whatifStack{}
	var err error
	if s.m, err = trainModels(st); err != nil {
		return nil, err
	}
	s.plans = whatifPlans(e.seed)
	execute(engine.New(nil), s.plans)
	s.or = newOracle(s.plans)
	if err := s.or.prime(s.m); err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "store")
	// The optimizer's schemas have no model of their own: requests
	// route to the wildcard model trained on TPC-H, as in the paper's
	// cross-workload experiments.
	if err := publishModels(storeDir, []string{""}, s.m, st); err != nil {
		return nil, err
	}
	st.heapBase = heapInuse()
	reg, infos, err := restoreRegistry(storeDir, st)
	if err != nil {
		return nil, err
	}
	if err := learnRestored(s.or, infos, s.m); err != nil {
		return nil, err
	}
	s.reg = reg
	s.svc = serve.New(serve.Options{Registry: reg})
	o := s.op(0)
	for b := 0; b < whatifWarm; b++ {
		if _, err := o.do(b, 0); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// op's request i estimates the (first+i)-th 64-plan batch of the
// pool, cycling; the one caller keeps its response in a single slot.
func (s *whatifStack) op(first int) op {
	var resp *serve.BatchResponse
	nb := len(s.plans) / whatifBatch
	return op{
		send: func(i, _ int) (err error) {
			lo := ((first + i) % nb) * whatifBatch
			resp, err = s.svc.EstimateBatch(context.Background(), serve.BatchRequest{
				Schema: whatifSchema(lo), Resources: bothResources,
				Plans: s.plans[lo : lo+whatifBatch]})
			return err
		},
		check: func(i, _ int) error {
			lo := ((first + i) % nb) * whatifBatch
			idx := make([]int, whatifBatch)
			for k := range idx {
				idx[k] = lo + k
			}
			return s.or.checkBatch(idx, resp)
		},
	}
}

func (s *whatifStack) models() []serve.ModelInfo {
	var out []serve.ModelInfo
	for _, k := range bothResources {
		if m, ok := s.reg.Lookup("", k); ok {
			out = append(out, m.Info)
		}
	}
	return out
}

func (s *whatifStack) measure(e *env, r *report) error {
	p := phases{n: whatifWindows, closed: time.Duration(e.seconds) * time.Second / whatifWindows, workers: 1}
	rs, warm := p.run(op{}, e.traced("whatif.batch", s.op(whatifWarm)))
	ss := flatten(rs, false)
	r.count(warm)
	r.count(ss)
	r.note("whatif: a closed loop of 1 caller x %d-plan batches over %d plans, in %d windows", whatifBatch, len(s.plans), p.n)
	r.estimates(rs, whatifBatch)
	// One caller sends in order, so sample j of the warm-up and the
	// windows together is request j, whose parity says if it was traced.
	all := append(warm[:len(warm):len(warm)], ss...)
	e.overhead(r, all)
	r.layer("loadgen.lag_p99_us", 0, "us")

	share, err := s.or.within2x(s.models())
	if err != nil {
		return err
	}
	r.e2e("within_2x_share", share, "share")
	sent := make([]int, 0, (whatifWarm+len(all))*whatifBatch)
	nb := len(s.plans) / whatifBatch
	for b := 0; b < whatifWarm+len(all); b++ {
		for k := 0; k < whatifBatch; k++ {
			sent = append(sent, (b%nb)*whatifBatch+k)
		}
	}
	repeatShare(r, sent, func(i int) int { return i })
	r.layer("workload.scaled_share", scaledShare(s.m.cpu, s.plans[:min(len(s.plans), 1024)]), "share")
	return nil
}

func (s *whatifStack) probes() *probes { return &probes{svcs: []*serve.Service{s.svc}} }

func (s *whatifStack) oracle() *oracle { return s.or }

// ladder builds the transport layers the workload itself does not use
// — a second service over the workload's registry, with HTTP and
// stream listeners and a one-replica router — and gives each rung pool
// plans no other rung has sent, so no rung hits the fresh service's
// cache, as in the workload.
func (s *whatifStack) ladder(e *env) (*ladder, error) {
	lt, err := startLadderTarget(s.reg)
	if err != nil {
		return nil, err
	}
	l := &ladder{set: mustSet(s.m), or: s.or, plans: s.plans, probes: lt.probes()}
	l.closers = append(l.closers, lt.close)
	obsPlans := tpchPlans(e.seed, "whatif-ladder-obs", ladderSample)
	execute(engine.New(nil), obsPlans)
	if err := l.addObserve(filepath.Join(e.dir, "ladder-obs"), s.reg, "", obsPlans); err != nil {
		l.close()
		return nil, err
	}
	// Seven single-plan rungs, then two samples' worth for the batches.
	n := 9 * ladderSample
	for j := 0; j < n; j++ {
		pi := len(s.plans) - 1 - j
		body, err := estimateBody(whatifSchema(pi), s.plans[pi])
		if err != nil {
			l.close()
			return nil, err
		}
		l.reqs = append(l.reqs, lt.req(pi, whatifSchema(pi), body))
	}
	return l, nil
}

func (s *whatifStack) close() { s.svc.Close() }

// ladderTarget is a one-replica serving stack over an existing
// registry: a second service with HTTP and stream listeners and a
// router with its response cache off in front, for workloads that do
// not run those layers.
type ladderTarget struct {
	rp             *replica
	rt             *cluster.Router
	direct, routed *stream.Client
}

func startLadderTarget(reg *serve.Registry) (*ladderTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &ladderTarget{}
	if t.rp, err = startReplica(reg, ln); err != nil {
		ln.Close()
		return nil, err
	}
	if t.rt, t.routed, err = startUncachedRouter([]string{t.rp.addr}); err != nil {
		t.close()
		return nil, err
	}
	if t.direct, err = stream.Dial(t.rp.ss.Addr()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *ladderTarget) req(pi int, schema string, body []byte) ladderReq {
	return ladderReq{plan: pi, schema: schema, body: body, svc: t.rp.svc,
		httpAddr: t.rp.addr, direct: t.direct, routed: t.routed}
}

func (t *ladderTarget) probes() *probes {
	return &probes{svcs: []*serve.Service{t.rp.svc}, streams: []*stream.Server{t.rp.ss}, routers: []*cluster.Router{t.rt}}
}

func (t *ladderTarget) close() {
	for _, cl := range []*stream.Client{t.direct, t.routed} {
		if cl != nil {
			cl.Close()
		}
	}
	if t.rt != nil {
		t.rt.Close()
	}
	if t.rp != nil {
		t.rp.close()
	}
}
