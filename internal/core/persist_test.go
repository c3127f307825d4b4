package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

func trainedEstimator(t *testing.T) (*Estimator, []*plan.Plan) {
	t.Helper()
	cfg := workload.Config{Seed: 61, N: 96, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var plans []*plan.Plan
	for _, q := range qs {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	tcfg := DefaultConfig()
	tcfg.Mart.Iterations = 100
	est, err := Train(plans[:72], plan.CPUTime, NewScaleTable(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return est, plans[72:]
}

func TestSaveLoadRoundTrip(t *testing.T) {
	est, test := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Resource != est.Resource || loaded.Mode != est.Mode {
		t.Fatal("metadata changed in round trip")
	}
	if len(loaded.Ops) != len(est.Ops) {
		t.Fatalf("op count %d -> %d", len(est.Ops), len(loaded.Ops))
	}
	for _, p := range test {
		a := est.PredictPlan(p)
		b := loaded.PredictPlan(p)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round-trip prediction drift: %v vs %v", a, b)
		}
	}
}

func TestSaveLoadPreservesSelection(t *testing.T) {
	est, _ := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for op, om := range est.Ops {
		lom := loaded.Ops[op]
		if lom == nil {
			t.Fatalf("operator %s missing after load", op)
		}
		if len(lom.Candidates) != len(om.Candidates) {
			t.Fatalf("%s: candidate count %d -> %d", op, len(om.Candidates), len(lom.Candidates))
		}
		if lom.Default.Name() != om.Default.Name() {
			t.Fatalf("%s: default changed %s -> %s", op, om.Default.Name(), lom.Default.Name())
		}
		if lom.NSamples != om.NSamples {
			t.Fatalf("%s: NSamples changed", op)
		}
	}
}

// TestLoadRejectsGarbage: anything but a slab fails to load — including
// the JSON model files earlier builds wrote, which must be rejected
// rather than decoded wrongly.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadEstimator(strings.NewReader("not a model")); !errors.Is(err, ErrSlab) {
		t.Fatalf("garbage: %v, want ErrSlab", err)
	}
	if _, err := LoadEstimator(strings.NewReader("")); !errors.Is(err, ErrSlab) {
		t.Fatalf("empty input: %v, want ErrSlab", err)
	}
	if _, err := LoadEstimator(strings.NewReader(`{"version":1,"resource":0,"mode":0,"ops":[{"op":0,"default":0,"candidates":[]}]}`)); !errors.Is(err, ErrSlab) {
		t.Fatalf("JSON model file: %v, want ErrSlab", err)
	}
}

func TestSavedSizeReasonable(t *testing.T) {
	est, _ := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// §7.3: the model set fits in a few megabytes; the slab's
	// metadata and node layout stay within that budget at test-sized
	// training.
	if buf.Len() > 8<<20 {
		t.Fatalf("saved estimator is %d bytes", buf.Len())
	}
	if buf.Len() < 1000 {
		t.Fatalf("saved estimator suspiciously small: %d bytes", buf.Len())
	}
}
