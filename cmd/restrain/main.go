// Command restrain generates a workload, executes it on the simulator
// and trains a SCALING resource estimator, saving the model set to disk.
//
// Usage:
//
//	restrain -out cpu-model.slab                     # CPU estimator
//	restrain -resource io -out io-model.slab          # logical-I/O estimator
//	restrain -schema tpch -n 1024 -iters 500 -out m.slab
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		schema   = flag.String("schema", "tpch", "workload schema: tpch, tpcds, real1, real2")
		n        = flag.Int("n", 512, "number of training queries")
		seed     = flag.Uint64("seed", 1, "random seed")
		resource = flag.String("resource", "cpu", "resource to model: cpu or io")
		iters    = flag.Int("iters", 300, "MART boosting iterations")
		estFeat  = flag.Bool("estimated-features", false, "train on optimizer-estimated features")
		out      = flag.String("out", "model.slab", "output model path")
		workers  = flag.Int("train-workers", 0, "training worker pool size (0 = GOMAXPROCS); the trained model is bit-identical at any worker count")
	)
	flag.Parse()

	res := repro.CPUTime
	if *resource == "io" {
		res = repro.LogicalIO
	} else if *resource != "cpu" {
		fatal(fmt.Errorf("unknown resource %q", *resource))
	}

	fmt.Fprintf(os.Stderr, "generating %d %s queries...\n", *n, *schema)
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{
		Schema: *schema, N: *n, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "executing workload on the engine simulator...")
	repro.Execute(qs)

	fmt.Fprintln(os.Stderr, "training estimator (incl. scaling-function selection)...")
	start := time.Now()
	est, err := repro.Train(qs, repro.TrainOptions{
		Resource:             res,
		BoostingIterations:   *iters,
		UseEstimatedFeatures: *estFeat,
		Workers:              *workers,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained in %.2fs\n", time.Since(start).Seconds())

	if err := est.SaveFile(*out); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("saved %s estimator to %s (%.1f KB)\n", *resource, *out, float64(info.Size())/1024)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "restrain:", err)
	os.Exit(1)
}
