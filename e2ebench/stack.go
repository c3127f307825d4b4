package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Training set-up shared by every workload: the paper's TPC-H
// training workload at scale factors 1–10, CPU and IO models trained
// in one core.TrainSet pass with the §6.2 scaling-function selection.
const (
	trainQueries = 256
	trainIters   = 100
)

var bothResources = []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}

// bothWire is the multi-resource selector every request of the
// benchmark carries: one pass estimates CPU and IO together.
var bothWire = []string{"cpu", "io"}

// models is one training run's output.
type models struct {
	cpu, io *core.Estimator
}

func (m *models) forResource(name string) *core.Estimator {
	if name == plan.CPUTime.String() {
		return m.cpu
	}
	return m.io
}

// setupTimes records where one set-up spent its time.
type setupTimes struct {
	total, train, publish, restore time.Duration
	snapshotBytes                  int64
	// heapBase is the heap in use once the benchmark's own data (plan
	// pools, request bodies, reference predictions) is built and before
	// the serving stack starts; heap_inuse_mb is measured from it.
	heapBase uint64
}

// heapInuse collects garbage and returns the bytes of heap in use.
func heapInuse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// workloadSeed derives the generator seed of one named plan pool.
func workloadSeed(seed uint64, stream string) uint64 {
	return newRand(seed, stream).Uint64()
}

// tpchPlans generates n TPC-H plans at the training scale factors.
func tpchPlans(seed uint64, stream string, n int) []*plan.Plan {
	cfg := workload.DefaultConfig()
	cfg.N = n
	cfg.Seed = workloadSeed(seed, stream)
	qs := workload.GenTPCH(cfg)
	out := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		out[i] = q.Plan
	}
	return out
}

// execute runs every plan on the engine simulator, filling in actuals.
func execute(eng *engine.Engine, plans []*plan.Plan) {
	for _, p := range plans {
		eng.Run(p)
	}
}

// trainSeed fixes the training workload: every run serves the same
// models, so run-to-run differences come from the traffic the --seed
// draws, not from retraining on a different sample.
const trainSeed = 1

// trainModels generates and executes the training workload and trains
// the CPU and IO estimators, each stamped with its in-sample error as
// its drift baseline.
func trainModels(st *setupTimes) (*models, error) {
	plans := tpchPlans(trainSeed, "train", trainQueries)
	execute(engine.New(nil), plans)
	t0 := time.Now()
	table := core.SelectScaleFunctions(engine.New(nil), workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1))
	table.MirrorScanKinds()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = trainIters
	ests, err := core.TrainSet(plans, bothResources, table, cfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	for _, r := range bothResources {
		ests[r].SetBaseline(plans)
	}
	st.train += time.Since(t0)
	return &models{cpu: ests[plan.CPUTime], io: ests[plan.LogicalIO]}, nil
}

// publishModels writes one snapshot per schema into a fresh store at
// dir, as a bootstrap would.
func publishModels(dir string, schemas []string, m *models, st *setupTimes) error {
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, schema := range schemas {
		snap := store.Snapshot{Schema: schema, Source: "bootstrap",
			Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: m.cpu, plan.LogicalIO: m.io}}
		if _, err := s.Publish(snap); err != nil {
			return fmt.Errorf("publish %q: %w", schema, err)
		}
	}
	st.publish += time.Since(t0)
	st.snapshotBytes, err = dirBytes(dir)
	return err
}

// restoreRegistry opens the store at dir and restores a fresh
// registry from it, as a replica does at boot.
func restoreRegistry(dir string, st *setupTimes) (*serve.Registry, []serve.ModelInfo, error) {
	t0 := time.Now()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	reg := serve.NewRegistry()
	reg.AttachStore(s, nil)
	infos, err := reg.RestoreFromStore()
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	st.restore += time.Since(t0)
	return reg, infos, nil
}

// learnRestored tells the oracle that every restored version serves
// the estimators trained in-process: restore through the store's slab
// path must be bit-identical to them.
func learnRestored(o *oracle, infos []serve.ModelInfo, m *models) error {
	for _, info := range infos {
		if err := o.learn(refOf(info), m.forResource(info.Resource)); err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// replica is one in-process resserve: service, stream listener and
// HTTP listener, built with the constructors cmd/resserve uses.
type replica struct {
	svc  *serve.Service
	ss   *stream.Server
	hsrv *http.Server
	addr string
}

// startReplica serves reg on the pre-bound HTTP listener ln and a
// fresh stream listener.
func startReplica(reg *serve.Registry, ln net.Listener) (*replica, error) {
	svc := serve.New(serve.Options{Registry: reg})
	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		svc.Close()
		return nil, err
	}
	svc.SetStreamAddr(ss.Addr())
	hsrv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hsrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("replica %s: %v", ln.Addr(), err)
		}
	}()
	return &replica{svc: svc, ss: ss, hsrv: hsrv, addr: ln.Addr().String()}, nil
}

func (r *replica) close() {
	r.hsrv.Close()
	r.ss.Close()
	r.svc.Close()
}

// estimateBody encodes a /estimate (and stream frame) request body
// for plan p: CPU and IO in one pass.
func estimateBody(schema string, p *plan.Plan) ([]byte, error) {
	enc, err := plan.EncodeJSON(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&stream.Request{Schema: schema, Resources: bothWire, Plan: enc})
}

// scaledShare is the share of operators whose features fall outside
// the CPU model's training range, so the paper's scaling functions
// decide their estimate.
func scaledShare(est *core.Estimator, plans []*plan.Plan) float64 {
	var scaled, n int
	for _, p := range plans {
		scaled += est.Explain(p).ScaledCount()
		n += p.NumNodes()
	}
	return float64(scaled) / float64(n)
}
