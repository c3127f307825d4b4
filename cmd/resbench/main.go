// Command resbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	resbench -exp all                 # everything (can take minutes)
//	resbench -exp table4,table7,fig7  # a subset
//	resbench -size 0.25 -iters 200    # smaller/faster run
//
// Experiments: table4..table13, fig1, fig2, fig3, fig6, fig7, fig8,
// predcost, memsize, trainbench, servebench, streambench, accuracybench,
// coldstartbench.
//
// trainbench times the parallel training pipeline (bootstrap-shaped
// CPU+I/O sweep at 1 worker and at GOMAXPROCS) and writes the
// samples/sec baseline to -train-out (default BENCH_train.json) so the
// training-performance trajectory is tracked across PRs.
//
// servebench drives the estimation service (single-plan requests
// uncached and cached, one warm batch) and writes p50/p99 latency and
// plans/s to -serve-out (default BENCH_serve.json). The same run is the
// telemetry overhead guard: the cached request loop is timed with
// telemetry on and off and the difference must stay within
// -serve-overhead-max percent (exit 1 otherwise; set <= 0 to only
// report).
//
// streambench compares the streaming estimate transport against
// keep-alive HTTP at several connection counts — same warm service,
// same plans, one sequential client per connection — and writes
// estimates/s, speedup and realized batch fill to -stream-out (default
// BENCH_stream.json). -stream-speedup-min turns every level's speedup
// into a hard guard.
//
// accuracybench trains CPU and I/O models on one workload and replays a
// held-out workload (disjoint seed) through the simulator, writing
// per-plan and per-operator signed log-ratio error quantiles and
// ratio-band coverage to -accuracy-out (default BENCH_accuracy.json) —
// the model-quality baseline tracked across PRs, measured with the same
// error histogram the online feedback telemetry exports.
//
// clusterbench stands up 1/2/4 in-process resserve replicas behind the
// schema-affinity router and drives its streaming listener closed-loop
// with per-replica offered load held constant (weak scaling), then the
// replicas' own stream listeners with the same load, writing routed and
// direct estimates/s, p99, the scaling efficiency vs one replica and
// the router efficiency (routed over direct est/s) to -cluster-out
// (default BENCH_cluster.json). -cluster-efficiency-min turns every
// fleet's router efficiency into a hard guard.
//
// coldstartbench publishes one CPU+I/O snapshot and times restoring it
// zero-copy over the mmap'd slabs, writing restore latency, per-replica
// private model memory, post-restore batch throughput and slab size to
// -coldstart-out (default BENCH_coldstart.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments or 'all'")
		size     = flag.Float64("size", 0.25, "workload size factor (1 = paper-sized)")
		iters    = flag.Int("iters", 200, "MART boosting iterations")
		seed     = flag.Uint64("seed", 1, "random seed")
		t13iters = flag.Int("t13iters", 1000, "boosting iterations for Table 13 timing")
		trainN   = flag.Int("train-n", 128, "trainbench workload size (queries)")
		trainOut = flag.String("train-out", "BENCH_train.json", "trainbench baseline output path (empty = stdout only)")
		serveN   = flag.Int("serve-n", 128, "servebench workload size (queries)")
		serveIt  = flag.Int("serve-iters", 60, "servebench benchmark-model MART iterations")
		serveRnd = flag.Int("serve-rounds", 7, "servebench measurement rounds per mode (median taken)")
		serveOut = flag.String("serve-out", "BENCH_serve.json", "servebench baseline output path (empty = stdout only)")
		serveMax = flag.Float64("serve-overhead-max", 3, "fail when telemetry overhead exceeds this percent (<= 0 disables the guard)")
		accN     = flag.Int("accuracy-n", 128, "accuracybench workload size (queries, train and held-out each)")
		accIt    = flag.Int("accuracy-iters", 60, "accuracybench model MART iterations")
		accOut   = flag.String("accuracy-out", "BENCH_accuracy.json", "accuracybench baseline output path (empty = stdout only)")
		strN     = flag.Int("stream-n", 64, "streambench workload size (queries)")
		strIt    = flag.Int("stream-iters", 60, "streambench benchmark-model MART iterations")
		strReqs  = flag.Int("stream-reqs", 50, "streambench estimates issued per connection")
		strDepth = flag.Int("stream-depth", 5, "streambench in-flight estimates per streaming connection (HTTP stays sequential)")
		strConns = flag.String("stream-conns", "1,64,1024", "streambench comma-separated connection counts")
		strOut   = flag.String("stream-out", "BENCH_stream.json", "streambench baseline output path (empty = stdout only)")
		strMin   = flag.Float64("stream-speedup-min", 0, "fail when the streaming speedup vs HTTP at any connection count falls below this (<= 0 disables the guard)")
		coldN    = flag.Int("coldstart-n", 96, "coldstartbench workload size (queries)")
		coldIt   = flag.Int("coldstart-iters", 100, "coldstartbench model MART iterations")
		coldRnd  = flag.Int("coldstart-rounds", 7, "coldstartbench restore rounds (median taken)")
		coldOut  = flag.String("coldstart-out", "BENCH_coldstart.json", "coldstartbench baseline output path (empty = stdout only)")
		cluN     = flag.Int("cluster-n", 64, "clusterbench workload size (queries)")
		cluIt    = flag.Int("cluster-iters", 60, "clusterbench benchmark-model MART iterations")
		cluSch   = flag.Int("cluster-schemas", 4, "clusterbench schemas owned per replica")
		cluConns = flag.Int("cluster-conns", 2, "clusterbench streaming connections per replica's worth of load")
		cluDepth = flag.Int("cluster-depth", 4, "clusterbench in-flight estimates per connection")
		cluReqs  = flag.Int("cluster-reqs", 200, "clusterbench estimates per worker in each timed run (direct and routed alternate over 4 rounds)")
		cluFlts  = flag.String("cluster-fleets", "1,2,4", "clusterbench comma-separated fleet sizes")
		cluOut   = flag.String("cluster-out", "BENCH_cluster.json", "clusterbench baseline output path (empty = stdout only)")
		cluMin   = flag.Float64("cluster-efficiency-min", 0, "fail when any fleet's router efficiency (routed est/s over direct-to-replica est/s at equal load) falls below this (<= 0 disables the guard)")
	)
	flag.Parse()

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(name string) bool { return all || want[name] }

	needRunner := false
	for _, e := range []string{"table4", "table5", "table6", "table7", "table8", "table9",
		"table10", "table11", "table12", "fig1", "fig2", "fig3", "fig6", "fig7", "fig8",
		"predcost", "memsize", "kcca"} {
		if sel(e) {
			needRunner = true
		}
	}

	var r *experiments.Runner
	if needRunner {
		fmt.Fprintf(os.Stderr, "generating and executing workloads (size=%.2f)...\n", *size)
		r = experiments.NewRunner(experiments.Setup{
			Seed: *seed, SizeFactor: *size, MartIterations: *iters, Noise: -1,
		})
		fmt.Fprintf(os.Stderr, "selected scaling functions:\n%s\n", r.ScaleTable)
	}

	type tableFn struct {
		name string
		fn   func() (*experiments.Table, error)
	}
	if r != nil {
		tables := []tableFn{
			{"table4", r.Table4}, {"table5", r.Table5}, {"table6", r.Table6},
			{"table7", r.Table7}, {"table8", r.Table8}, {"table9", r.Table9},
			{"table10", r.Table10}, {"table11", r.Table11}, {"table12", r.Table12},
		}
		for _, tf := range tables {
			if !sel(tf.name) {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", tf.name)
			t, err := tf.fn()
			if err != nil {
				fatal(err)
			}
			fmt.Println(t.Format())
		}
		if sel("fig1") {
			fmt.Println(r.Figure1().Format())
		}
		if sel("fig2") {
			f, err := r.Figure2()
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Format())
		}
		if sel("fig3") {
			f, err := r.Figure3()
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Format())
		}
		if sel("fig6") {
			f, err := r.Figure6()
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Format())
		}
		if sel("fig7") {
			fmt.Println(r.Figure7().Format())
		}
		if sel("fig8") {
			fmt.Println(r.Figure8().Format())
		}
		if sel("kcca") {
			res, err := r.RelatedWorkKCCA()
			if err != nil {
				fatal(err)
			}
			fmt.Println(res.Format())
		}
		if sel("predcost") {
			sec, err := r.PredictionCost()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Prediction cost (§7.3): %.3g µs per operator-level costing call\n\n", sec*1e6)
		}
		if sel("memsize") {
			bytes, err := r.ModelSizeBytes()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Model set size (§7.3): %.2f KB total across all candidate models\n\n",
				float64(bytes)/1024)
		}
	}
	if sel("table13") {
		fmt.Fprintln(os.Stderr, "running table13 (MART training times)...")
		rows := experiments.Table13(nil, *t13iters)
		fmt.Println(experiments.FormatTable13(rows, *t13iters))
	}
	if sel("trainbench") {
		fmt.Fprintln(os.Stderr, "running trainbench (parallel training throughput)...")
		tb, err := experiments.RunTrainBench(*trainN, *iters)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Training throughput (%d queries, %d samples, %d iterations):\n",
			tb.Queries, tb.Samples, tb.Iterations)
		for _, run := range tb.Runs {
			fmt.Printf("  workers=%-3d %8.2f samples/s  (%.2fs, %.2fx vs sequential)\n",
				run.Workers, run.SamplesPerSec, run.Seconds, run.SpeedupVsSequential)
		}
		if *trainOut != "" {
			data, err := json.MarshalIndent(tb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*trainOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote training baseline to %s\n", *trainOut)
		}
	}
	if sel("servebench") {
		fmt.Fprintln(os.Stderr, "running servebench (serving latency + telemetry overhead)...")
		sb, err := experiments.RunServeBench(*serveN, *serveIt, *serveRnd)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Serving latency (%d plans, %d operators, %d workers):\n",
			sb.Queries, sb.Operators, sb.Workers)
		fmt.Printf("  uncached  p50 %8.1f µs  p99 %8.1f µs  %8.0f req/s\n",
			sb.Uncached.P50Micros, sb.Uncached.P99Micros, sb.Uncached.RequestsPerSec)
		fmt.Printf("  cached    p50 %8.1f µs  p99 %8.1f µs  %8.0f req/s\n",
			sb.Cached.P50Micros, sb.Cached.P99Micros, sb.Cached.RequestsPerSec)
		fmt.Printf("  batch     %8.0f plans/s\n", sb.BatchPlansPerSec)
		fmt.Printf("  telemetry overhead: %+.2f%% (cached request loop, on vs off)\n",
			sb.TelemetryOverheadPct)
		if *serveOut != "" {
			data, err := json.MarshalIndent(sb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*serveOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote serving baseline to %s\n", *serveOut)
		}
		if *serveMax > 0 && sb.TelemetryOverheadPct > *serveMax {
			fatal(fmt.Errorf("telemetry overhead %.2f%% exceeds the %.2f%% guard",
				sb.TelemetryOverheadPct, *serveMax))
		}
	}
	if sel("streambench") {
		var conns []int
		for _, part := range strings.Split(*strConns, ",") {
			var c int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &c); err != nil || c <= 0 {
				fatal(fmt.Errorf("bad -stream-conns entry %q", part))
			}
			conns = append(conns, c)
		}
		fmt.Fprintln(os.Stderr, "running streambench (streaming vs HTTP estimate throughput)...")
		sb, err := experiments.RunStreamBench(*strN, *strIt, *strReqs, *strDepth, conns)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Streaming transport (%d plans, %d operators, %d requests/conn):\n",
			sb.Queries, sb.Operators, sb.RequestsPerConn)
		for _, lvl := range sb.Levels {
			fmt.Printf("  conns=%-5d stream %9.0f est/s  http %9.0f est/s  %5.2fx  (fill %.1f, p50 %.0f µs, p99 %.0f µs)\n",
				lvl.Conns, lvl.StreamPerSec, lvl.HTTPPerSec, lvl.Speedup,
				lvl.AvgBatchFill, lvl.StreamP50Micros, lvl.StreamP99Micros)
		}
		if *strOut != "" {
			data, err := json.MarshalIndent(sb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*strOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote streaming baseline to %s\n", *strOut)
		}
		for _, lvl := range sb.Levels {
			if *strMin > 0 && lvl.Speedup < *strMin {
				fatal(fmt.Errorf("streaming speedup %.2fx at %d conns below the %.2fx guard",
					lvl.Speedup, lvl.Conns, *strMin))
			}
		}
	}
	if sel("accuracybench") {
		fmt.Fprintln(os.Stderr, "running accuracybench (held-out model accuracy)...")
		ab, err := experiments.RunAccuracyBench(*accN, *accIt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Held-out accuracy (%d train / %d held-out queries, %d iterations):\n",
			ab.TrainQueries, ab.HoldoutQueries, ab.Iterations)
		for _, r := range ab.Resources {
			p := r.Plan
			fmt.Printf("  %-4s plan  err p50 %+.3f  p90 %+.3f  p99 %+.3f  | within 1.5x %.1f%%  2x %.1f%%\n",
				r.Resource, p.ErrP50, p.ErrP90, p.ErrP99, p.Within15x*100, p.Within2x*100)
			for _, op := range r.Operators {
				fmt.Printf("       %-14s n=%-5d err p50 %+.3f  p90 %+.3f  | within 2x %.1f%%\n",
					op.Op, op.Count, op.ErrP50, op.ErrP90, op.Within2x*100)
			}
		}
		if *accOut != "" {
			data, err := json.MarshalIndent(ab, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*accOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote accuracy baseline to %s\n", *accOut)
		}
	}
	if sel("clusterbench") {
		var fleets []int
		for _, part := range strings.Split(*cluFlts, ",") {
			var f int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &f); err != nil || f <= 0 {
				fatal(fmt.Errorf("bad -cluster-fleets entry %q", part))
			}
			fleets = append(fleets, f)
		}
		fmt.Fprintln(os.Stderr, "running clusterbench (router + replica-fleet scaling)...")
		cb, err := experiments.RunClusterBench(*cluN, *cluIt, *cluSch, *cluConns, *cluDepth, *cluReqs, fleets)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Replica scaling (%d plans, %d operators, %d schemas/replica, %d×%d workers/replica):\n",
			cb.Queries, cb.Operators, cb.SchemasPerReplica, cb.ConnsPerReplica, cb.PipelineDepth)
		for _, f := range cb.Fleets {
			fmt.Printf("  replicas=%-2d %9.0f est/s  %9.0f est/s/replica  eff %.2f  direct %9.0f est/s  router eff %.2f  (p50 %.0f µs, p99 %.0f µs, spill %d, shed %d)\n",
				f.Replicas, f.EstPerSec, f.PerReplicaPerSec, f.Efficiency, f.DirectEstPerSec, f.RouterEfficiency,
				f.P50Micros, f.P99Micros, f.Spillover, f.Shed)
		}
		if *cluOut != "" {
			data, err := json.MarshalIndent(cb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*cluOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote cluster baseline to %s\n", *cluOut)
		}
		if *cluMin > 0 && cb.MinRouterEfficiency < *cluMin {
			fatal(fmt.Errorf("cluster router efficiency %.2f below the %.2f guard",
				cb.MinRouterEfficiency, *cluMin))
		}
	}
	if sel("coldstartbench") {
		fmt.Fprintln(os.Stderr, "running coldstartbench (mmap restore)...")
		cb, err := experiments.RunColdStartBench(*coldN, *coldIt, *coldRnd)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Cold start (%d plans, %d operators, %d iterations; snapshot %s slab):\n",
			cb.Queries, cb.Operators, cb.Iterations, fmtKB(cb.SlabFileBytes))
		fmt.Printf("  mmap restore %8.3f ms  private %8s  %9.0f plans/s\n",
			cb.RestoreMillis, fmtKB(cb.PrivateModelBytes), cb.BatchPlansPerSec)
		if *coldOut != "" {
			data, err := json.MarshalIndent(cb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*coldOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote cold-start baseline to %s\n", *coldOut)
		}
	}
}

func fmtKB(b int64) string {
	return fmt.Sprintf("%.1f KB", float64(b)/1024)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resbench:", err)
	os.Exit(1)
}
