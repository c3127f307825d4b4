package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// ladderSample is the number of requests each rung times.
const ladderSample = 256

// ladderBatches is the number of 64-plan batches the batch rung times.
const ladderBatches = 8

const whatifBatch = 64

// ladderReq is one sampled request and the components that serve it:
// the service, its HTTP address and stream listener, and the router in
// front of it.
type ladderReq struct {
	plan     int
	schema   string
	body     []byte // the /estimate request body
	svc      *serve.Service
	httpAddr string
	direct   *stream.Client // to the serving replica's stream listener
	routed   *stream.Client // to the router's stream listener
}

// ladder times one request at a time through successively wider entry
// points: feature extraction, the estimator set, the plan codec, the
// service, a batch, the HTTP handler, the stream listener and the
// router. Each rung is one span per request; a layer's self time is the
// difference between the medians of adjacent rungs that do the same
// work.
type ladder struct {
	set   *core.EstimatorSet
	or    *oracle
	plans []*plan.Plan
	// reqs holds ladderSample requests per rung when cold (each rung
	// gets plans no other rung has seen, as the workload's caches never
	// hit), else ladderSample requests every rung replays after one
	// untimed pass (the workload's caches are warm).
	reqs []ladderReq
	warm bool

	loop      *feedback.Loop
	obsSchema string
	obsPlans  []*plan.Plan

	probes  *probes
	closers []func()
}

func mustSet(m *models) *core.EstimatorSet {
	set, err := core.NewEstimatorSet(m.cpu, m.io)
	if err != nil {
		panic(err) // both come from one TrainSet call
	}
	return set
}

// addObserve gives the ladder its observation rung: a feedback loop
// with an on-disk log, scoring against reg's live models, that never
// retrains.
func (l *ladder) addObserve(dir string, reg *serve.Registry, schema string, plans []*plan.Plan) error {
	loop, err := feedback.New(feedback.Options{Dir: dir, Publisher: reg, MinObservations: 1 << 30})
	if err != nil {
		return err
	}
	l.loop, l.obsSchema, l.obsPlans = loop, schema, plans
	l.closers = append(l.closers, func() { loop.Close() })
	if l.probes == nil {
		l.probes = &probes{}
	}
	l.probes.loops = append(l.probes.loops, loop)
	return nil
}

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

func (l *ladder) req(rung, j int) *ladderReq {
	if l.warm {
		return &l.reqs[j]
	}
	return &l.reqs[rung*ladderSample+j]
}

type rung struct {
	name string
	unit string // "ns" or "us"
	// call sends the j-th request and keeps the response for check;
	// check (nil when the rung has nothing to verify) runs after the
	// timed loop, so the benchmark's own decoding is not timed.
	call, check func(j int, q *ladderReq) error
}

func (l *ladder) run(e *env, r *report) error {
	ctx := context.Background()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	wire := make(map[int][]byte)
	for j := range l.reqs {
		p := l.plans[l.reqs[j].plan]
		if wire[l.reqs[j].plan] == nil {
			b, err := plan.EncodeJSON(p)
			if err != nil {
				return err
			}
			wire[l.reqs[j].plan] = b
		}
	}
	one := func(q *ladderReq) []*plan.Plan { return l.plans[q.plan : q.plan+1] }
	// The rungs run one after another, so they share the response slots.
	bodies := make([][]byte, ladderSample)
	resps := make([]*serve.Response, ladderSample)
	checkBody := func(j int, q *ladderReq) error { return l.or.checkBody(q.plan, bodies[j]) }
	viaStream := func(cl func(q *ladderReq) *stream.Client) func(j int, q *ladderReq) error {
		return func(j int, q *ladderReq) (err error) {
			bodies[j], err = cl(q).EstimateBytes(ctx, q.body)
			return err
		}
	}
	rungs := []rung{
		{"features.extract", "ns", func(_ int, q *ladderReq) error {
			features.ExtractPlans(one(q), l.set.Mode)
			return nil
		}, nil},
		{"core.predict", "ns", func(_ int, q *ladderReq) error {
			l.set.PredictPlansAll(one(q))
			return nil
		}, nil},
		{"plan.decode", "us", func(_ int, q *ladderReq) error {
			_, err := plan.DecodeJSON(wire[q.plan])
			return err
		}, nil},
		{"serve.estimate", "us", func(j int, q *ladderReq) (err error) {
			resps[j], err = q.svc.Estimate(ctx, serve.Request{Schema: q.schema, Resources: bothResources, Plan: l.plans[q.plan]})
			return err
		}, func(j int, q *ladderReq) error {
			return l.or.checkTotals(q.plan, resps[j].Models, resps[j].Totals)
		}},
		{"serve.http", "us", func(j int, q *ladderReq) (err error) {
			bodies[j], err = postJSON(hc, "http://"+q.httpAddr+"/estimate", q.body)
			return err
		}, checkBody},
		{"stream.direct", "us", viaStream(func(q *ladderReq) *stream.Client { return q.direct }), checkBody},
		{"cluster.routed", "us", viaStream(func(q *ladderReq) *stream.Client { return q.routed }), checkBody},
	}
	med := make(map[string]time.Duration)
	for ri, rg := range rungs {
		each := func(f func(j int, q *ladderReq) error) error {
			for j := 0; f != nil && j < ladderSample; j++ {
				if err := f(j, l.req(ri, j)); err != nil {
					return fmt.Errorf("%s: %w", rg.name, err)
				}
			}
			return nil
		}
		if l.warm {
			if err := each(func(j int, q *ladderReq) error {
				if err := rg.call(j, q); err != nil || rg.check == nil {
					return err
				}
				return rg.check(j, q)
			}); err != nil {
				return err
			}
		}
		allocs, err := countAllocs(func() error {
			return each(func(j int, q *ladderReq) error {
				t0 := time.Now()
				err := rg.call(j, q)
				e.tr.record(uint64(j+1)<<32, 0, rg.name, t0, time.Now())
				return err
			})
		})
		if err == nil {
			err = each(rg.check)
		}
		if err != nil {
			return err
		}
		med[rg.name] = summarize(e.tr.byName(rg.name)).P50
		if rg.unit == "ns" {
			r.layer(rg.name+"_ns", float64(med[rg.name]), "ns")
		} else {
			r.layer(rg.name+"_us", us(med[rg.name]), "us")
		}
		r.layer(rg.name+"_allocs", allocs/ladderSample, "count")
	}
	if err := l.batchRung(e, r, len(rungs)); err != nil {
		return err
	}
	if err := l.observeRung(e, r); err != nil {
		return err
	}
	r.layer("cluster.hop_us", us(med["cluster.routed"]-med["stream.direct"]), "us")
	r.layer("stream.self_us", us(med["stream.direct"]-med["serve.estimate"]), "us")
	r.layer("serve.http_self_us", us(med["serve.http"]-med["serve.estimate"]), "us")
	return nil
}

// batchRung times EstimateBatch over 64-plan batches of the sample,
// reported per plan.
func (l *ladder) batchRung(e *env, r *report, rungIdx int) error {
	const name = "serve.batch"
	svc, schema := l.reqs[0].svc, l.reqs[0].schema
	idx := make([][]int, ladderBatches)
	ps := make([][]*plan.Plan, ladderBatches)
	for b := range idx {
		idx[b] = make([]int, whatifBatch)
		ps[b] = make([]*plan.Plan, whatifBatch)
		for k := range idx[b] {
			j := (b*whatifBatch + k) % ladderSample
			if !l.warm {
				j = rungIdx*ladderSample + (b*whatifBatch+k)%(2*ladderSample)
			}
			idx[b][k] = l.reqs[j].plan
			ps[b][k] = l.plans[idx[b][k]]
		}
	}
	resps := make([]*serve.BatchResponse, ladderBatches)
	call := func(b int) (err error) {
		resps[b], err = svc.EstimateBatch(context.Background(), serve.BatchRequest{Schema: schema, Resources: bothResources, Plans: ps[b]})
		return err
	}
	if l.warm {
		for b := 0; b < ladderBatches; b++ {
			if err := call(b); err != nil {
				return err
			}
		}
	}
	allocs, err := countAllocs(func() error {
		for b := 0; b < ladderBatches; b++ {
			t0 := time.Now()
			err := call(b)
			e.tr.record(uint64(b+1)<<32|1<<31, 0, name, t0, time.Now())
			if err != nil {
				return err
			}
		}
		return nil
	})
	for b := 0; err == nil && b < ladderBatches; b++ {
		err = l.or.checkBatch(idx[b], resps[b])
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.layer("serve.batch_ns_per_plan", float64(summarize(e.tr.byName(name)).P50)/whatifBatch, "ns")
	r.layer("serve.batch_allocs_per_plan", allocs/(ladderBatches*whatifBatch), "count")
	return nil
}

// observeRung times feedback.Loop.Observe of executed plans.
func (l *ladder) observeRung(e *env, r *report) error {
	const name = "feedback.observe"
	allocs, err := countAllocs(func() error {
		for j, p := range l.obsPlans {
			o := &feedback.Observation{Schema: l.obsSchema, Resource: plan.CPUTime, Plan: p}
			t0 := time.Now()
			err := l.loop.Observe(o)
			e.tr.record(uint64(j+1)<<32|1<<30, 0, name, t0, time.Now())
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.layer("feedback.observe_us", us(summarize(e.tr.byName(name)).P50), "us")
	r.layer("feedback.observe_allocs", allocs/float64(len(l.obsPlans)), "count")
	return nil
}

// countAllocs runs f and returns the heap allocations the process made
// meanwhile.
func countAllocs(f func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), err
}

func postJSON(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}
