package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/workload"
)

// The cold-start baseline behind cmd/resbench -exp coldstartbench: it
// publishes one snapshot and times restoring it — zero-copy over the
// mmap'd slabs — so BENCH_coldstart tracks restore latency, per-replica
// private model memory and restored-model batch throughput across PRs.

// ColdStartBench is the serializable cold-start baseline.
type ColdStartBench struct {
	Queries    int `json:"queries"`
	Operators  int `json:"operators"`
	Iterations int `json:"iterations"`
	// SlabFileBytes is the snapshot's on-disk slab size summed over
	// resources (slab pages are shared across co-resident replicas).
	SlabFileBytes int64 `json:"slab_file_bytes"`
	// RestoreMillis is the median wall-clock of a full snapshot restore
	// (manifest read, map + validate, both models).
	RestoreMillis float64 `json:"restore_millis"`
	// PrivateModelBytes is the restored models' private heap footprint
	// (heap-alloc delta across the restore, after GC). Mapped slab pages
	// are shared between replicas and excluded by construction — that
	// exclusion is the measurement.
	PrivateModelBytes int64 `json:"private_model_bytes"`
	// BatchPlansPerSec is PredictPlans throughput over the benchmark
	// workload with the restored models (best of rounds).
	BatchPlansPerSec float64 `json:"batch_plans_per_sec"`
}

// RunColdStartBench trains CPU+IO models on an n-query workload,
// publishes one snapshot, and measures restore latency (median of
// rounds restores), private model memory and post-restore throughput.
func RunColdStartBench(n, iters, rounds int) (*ColdStartBench, error) {
	if rounds < 1 {
		rounds = 1
	}
	qs := workload.GenTPCH(workload.Config{Seed: 1, N: n, SFs: []float64{1, 2, 4, 8}, Z: 2, Corr: 0.85})
	eng := engine.New(nil)
	for _, q := range qs {
		eng.Run(q.Plan)
	}
	plans := Plans(qs)
	resources := []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}

	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = iters
	set, err := core.TrainSet(plans, resources, core.NewScaleTable(), cfg)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "coldstartbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	for _, r := range resources {
		if set[r] == nil {
			return nil, fmt.Errorf("coldstartbench: no %s estimator trained", r)
		}
	}
	man, err := st.Publish(store.Snapshot{Schema: "tpch", Source: "bench", Models: set})
	if err != nil {
		return nil, err
	}

	res := &ColdStartBench{
		Queries:    len(qs),
		Iterations: iters,
	}
	for _, p := range plans {
		res.Operators += len(p.Nodes())
	}
	for _, e := range man.Models {
		if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("v%010d", man.Version), e.File)); err == nil {
			res.SlabFileBytes += fi.Size()
		}
	}

	// Restore latency: median of rounds full-snapshot loads. The loaded
	// sets are kept alive through the memory measurement below so
	// mapped-page lifetimes match production (mappings persist).
	var millis []float64
	var loads []*store.Loaded
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		loaded, err := st.LoadVersion(man.Version)
		if err != nil {
			return nil, fmt.Errorf("coldstartbench: restore: %w", err)
		}
		millis = append(millis, float64(time.Since(start).Nanoseconds())/1e6)
		loads = append(loads, loaded)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d > 0 {
		res.PrivateModelBytes = d / int64(rounds)
	}
	sort.Float64s(millis)
	res.RestoreMillis = millis[len(millis)/2]

	// Post-restore batch throughput, best of rounds: the restored
	// models must not trade restore time for prediction time.
	loaded := loads[len(loads)-1]
	for i := 0; i < rounds; i++ {
		start := time.Now()
		nPlans := 0
		for _, r := range resources {
			loaded.Models[r].PredictPlans(plans)
			nPlans += len(plans)
		}
		if pps := float64(nPlans) / time.Since(start).Seconds(); pps > res.BatchPlansPerSec {
			res.BatchPlansPerSec = pps
		}
	}
	runtime.KeepAlive(loads)
	return res, nil
}
