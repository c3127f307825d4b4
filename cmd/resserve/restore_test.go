package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// trainOne trains a small single-resource model for the test store.
func trainOne(t *testing.T, r repro.Resource) (*repro.Estimator, []*repro.Query) {
	t.Helper()
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(qs)
	ests, err := repro.TrainSet(qs, repro.TrainOptions{
		BoostingIterations: 10,
		SkipScaleSelection: true,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	return ests[0], qs
}

// TestPartialRestoreHealsUnderSlabPath re-verifies the partial-restore
// healing fix with the slab restore path engaged: a store holding a
// CPU-only snapshot (the shape a crash between a schema's CPU and IO
// publishes leaves behind) — now with a slab sibling, so the restore
// runs zero-copy — must restore CPU, report exactly IO as missing, and
// after healing report nothing missing. Before the fix, any restored
// resource suppressed the whole schema's bootstrap and IO wedged on
// the zero model.
func TestPartialRestoreHealsUnderSlabPath(t *testing.T) {
	dir := t.TempDir()
	cpuEst, qs := trainOne(t, repro.CPUTime)

	pub, err := repro.OpenModelStore(dir, repro.ModelStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	man, err := repro.SaveSnapshot(pub, "tpch", "bootstrap", cpuEst)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot must actually carry a slab, or this test would pass
	// without exercising the slab restore path at all.
	if len(man.Models) != 1 || filepath.Ext(man.Models[0].File) != ".slab" {
		t.Fatalf("snapshot has no slab to restore through: %+v", man.Models)
	}
	if _, err := os.Stat(filepath.Join(dir, "v0000000001", man.Models[0].File)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh service attaches the store and restores.
	st, err := repro.OpenModelStore(dir, repro.ModelStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc := repro.NewService(repro.ServeOptions{DisableTelemetry: true})
	defer svc.Close()
	infos, err := repro.AttachModelStore(svc, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker := newRestoreTracker()
	for _, info := range infos {
		tracker.mark(info.Schema, info.Resource)
	}
	if !tracker.any("tpch") {
		t.Fatal("nothing restored from the CPU-only snapshot")
	}
	missing := tracker.missing("tpch")
	if len(missing) != 1 || missing[0] != repro.LogicalIO {
		t.Fatalf("missing = %v, want exactly [io]", missing)
	}

	// The restored CPU model must be the slab view of the published one:
	// bit-identical predictions.
	ctx := context.Background()
	for _, q := range qs[:4] {
		got, err := svc.Estimate(ctx, repro.EstimateRequest{Schema: "tpch", Resource: repro.CPUTime, Plan: q.Plan})
		if err != nil {
			t.Fatal(err)
		}
		if want := cpuEst.EstimatePlan(q.Plan); got.Total != want {
			t.Fatalf("restored prediction %v != published %v", got.Total, want)
		}
	}

	// Heal the gap the way main() does: bootstrap only the missing set.
	ioEst, _ := trainOne(t, repro.LogicalIO)
	repro.PublishAs(svc, "tpch", ioEst, "bootstrap")
	tracker.mark("tpch", repro.LogicalIO.String())
	if left := tracker.missing("tpch"); len(left) != 0 {
		t.Fatalf("still missing after heal: %v", left)
	}
	if _, err := svc.Estimate(ctx, repro.EstimateRequest{Schema: "tpch", Resource: repro.LogicalIO, Plan: qs[0].Plan}); err != nil {
		t.Fatalf("healed IO route does not serve: %v", err)
	}
}
