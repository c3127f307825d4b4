package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
)

// modelRef names one served model version.
type modelRef struct {
	schema   string
	resource string // as in serve.ModelInfo: "CPU" or "IO"
	version  uint64
}

func refOf(m serve.ModelInfo) modelRef {
	return modelRef{schema: m.Schema, resource: m.Resource, version: m.Version}
}

// oracle checks served estimates against the in-process reference:
// core.EstimatorSet.PredictPlansAll over the estimators of exactly the
// model versions the response names, compared bit for bit. Every
// response of a run goes through check; a mismatch is a failed
// request, and any mismatch fails the run.
type oracle struct {
	plans []*plan.Plan

	mu     sync.Mutex
	models map[modelRef]*core.Estimator
	refs   map[[2]*core.Estimator][]plan.Resources
	// verified maps response bodies already checked to their plan.
	verified map[string]int

	mismatches atomic.Int64
	firstMu    sync.Mutex
	first      []string
}

func newOracle(plans []*plan.Plan) *oracle {
	return &oracle{
		plans:    plans,
		models:   make(map[modelRef]*core.Estimator),
		refs:     make(map[[2]*core.Estimator][]plan.Resources),
		verified: make(map[string]int),
	}
}

// learn registers the estimator a model version serves. Registering a
// different estimator under a known version is a setup error.
func (o *oracle) learn(ref modelRef, est *core.Estimator) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.models[ref]; ok && prev != est {
		return fmt.Errorf("oracle: %s/%s v%d maps to two estimators", ref.schema, ref.resource, ref.version)
	}
	o.models[ref] = est
	return nil
}

func (o *oracle) estimator(ref modelRef) (*core.Estimator, error) {
	o.mu.Lock()
	est, ok := o.models[ref]
	o.mu.Unlock()
	if ok {
		return est, nil
	}
	return nil, fmt.Errorf("oracle: no reference for %s/%s v%d", ref.schema, ref.resource, ref.version)
}

// reference returns the reference CPU+IO totals of plan i under the
// two named model versions, as prime computed them.
func (o *oracle) reference(i int, models []serve.ModelInfo) (*plan.Resources, error) {
	if len(models) != 2 || models[0].Resource != plan.CPUTime.String() || models[1].Resource != plan.LogicalIO.String() {
		return nil, fmt.Errorf("oracle: response models %v, want [CPU IO]", models)
	}
	cpu, err := o.estimator(refOf(models[0]))
	if err != nil {
		return nil, err
	}
	io, err := o.estimator(refOf(models[1]))
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	refs := o.refs[[2]*core.Estimator{cpu, io}]
	o.mu.Unlock()
	if refs == nil {
		return nil, fmt.Errorf("oracle: no reference predictions for v%d/v%d", models[0].Version, models[1].Version)
	}
	return &refs[i], nil
}

// prime computes the reference for every plan under the trained
// models in one batched pass, during set-up, so that neither the
// measured phases nor the serving stack's heap figure carry reference
// predictions.
func (o *oracle) prime(m *models) error {
	set, err := core.NewEstimatorSet(m.cpu, m.io)
	if err != nil {
		return err
	}
	all := set.PredictPlansAll(o.plans)
	o.mu.Lock()
	o.refs[[2]*core.Estimator{m.cpu, m.io}] = all
	o.mu.Unlock()
	return nil
}

// forget drops the memo of verified response bodies, the one part of
// the oracle that grows while the workload runs.
func (o *oracle) forget() {
	o.mu.Lock()
	o.verified = make(map[string]int)
	o.mu.Unlock()
}

// within2x is the share of the pool's plan×resource pairs the named
// model versions predict within [0.5x, 2x] of the plans' actuals.
func (o *oracle) within2x(models []serve.ModelInfo) (float64, error) {
	var in, n int
	for i, p := range o.plans {
		ref, err := o.reference(i, models)
		if err != nil {
			return 0, err
		}
		act := p.TotalActual()
		for _, r := range []plan.ResourceKind{plan.CPUTime, plan.LogicalIO} {
			n++
			if ratio := ref.Get(r) / act.Get(r); ratio >= 0.5 && ratio <= 2 {
				in++
			}
		}
	}
	return float64(in) / float64(n), nil
}

// checkTotals compares one plan's served CPU+IO totals with the
// reference for the versions that served them.
func (o *oracle) checkTotals(i int, models []serve.ModelInfo, totals []float64) error {
	ref, err := o.reference(i, models)
	if err == nil && len(totals) != 2 {
		err = fmt.Errorf("oracle: %d totals, want 2", len(totals))
	}
	if err == nil {
		for k, r := range []plan.ResourceKind{plan.CPUTime, plan.LogicalIO} {
			if math.Float64bits(totals[k]) != math.Float64bits(ref.Get(r)) {
				err = fmt.Errorf("oracle: plan %d %s total %v, reference %v (v%d)",
					i, models[k].Resource, totals[k], ref.Get(r), models[k].Version)
				break
			}
		}
	}
	if err != nil {
		o.fail(err)
	}
	return err
}

// wireResponse is the part of a /estimate response body the oracle
// reads.
type wireResponse struct {
	Models []serve.ModelInfo `json:"models"`
	Totals []float64         `json:"totals"`
}

// maxVerified bounds the memo of verified bodies; past it, every
// response is decoded.
const maxVerified = 1 << 15

// checkBody checks a wire response for plan i. A body byte-identical
// to one already verified for the plan passes without a decode.
func (o *oracle) checkBody(i int, body []byte) error {
	o.mu.Lock()
	j, ok := o.verified[string(body)]
	o.mu.Unlock()
	if ok && j == i {
		return nil
	}
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		err = fmt.Errorf("oracle: plan %d: decode response: %v", i, err)
		o.fail(err)
		return err
	}
	if err := o.checkTotals(i, resp.Models, resp.Totals); err != nil {
		return err
	}
	o.mu.Lock()
	if len(o.verified) < maxVerified {
		o.verified[string(body)] = i
	}
	o.mu.Unlock()
	return nil
}

// checkBatch checks an in-process batch response for plans idx.
func (o *oracle) checkBatch(idx []int, resp *serve.BatchResponse) error {
	if len(resp.Plans) != len(idx) {
		err := fmt.Errorf("oracle: batch of %d answered with %d plans", len(idx), len(resp.Plans))
		o.fail(err)
		return err
	}
	for k, i := range idx {
		if err := o.checkTotals(i, resp.Models, resp.Plans[k].Totals); err != nil {
			return err
		}
	}
	return nil
}

func (o *oracle) fail(err error) {
	o.mismatches.Add(1)
	o.firstMu.Lock()
	if len(o.first) < 5 {
		o.first = append(o.first, err.Error())
	}
	o.firstMu.Unlock()
}
