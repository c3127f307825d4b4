// Command e2ebench is the repository's end-to-end benchmark. It stands
// the serving stack up in-process through the constructors
// cmd/resserve and cmd/resrouter use — core.TrainSet, a model store,
// serve.Registry.RestoreFromStore, serve.New, stream.Start, cluster.New
// and StartStream — drives one workload against it, checks every
// response bit for bit against the in-process estimator, and prints
// one JSON result line. From the root of the repository:
//
//	bash e2ebench/run.sh --workload routed-point --seed 1 --seconds 40 --trace 0
//
// The workloads, and why each was chosen:
//
//   - routed-point is admission control: single-plan CPU+IO estimates
//     over the router's streaming listener to two replicas that own
//     four schemas each. Plans are drawn Zipf-skewed from 1024 TPC-H
//     plans, so nearly every request repeats: the replicas' prediction
//     caches hold every plan, and the router's response cache answers
//     about nine requests in ten. An open loop at a fixed Poisson rate
//     well under capacity (the idle-client case) gives latency; a
//     closed loop of two connections at a fixed depth gives capacity.
//     Almost no model walk happens here: the cost is the router hop,
//     stream framing and, on router-cache misses, the replica's
//     coalescing wait, so transport and router changes show here and
//     nowhere else.
//   - whatif-batch is an embedded optimizer costing candidates: one
//     caller runs serve.Service.EstimateBatch over 64 distinct plans at
//     a time, closed loop, in process. The plans come from the
//     cross-workload generators (TPC-DS-like, Real-1, Real-2) at scale
//     factors beyond the TPC-H training range, so the paper's scaling
//     functions fire, and the pool holds at least twice as many
//     distinct operator vectors as the prediction cache, so the LRU
//     never hits. Feature extraction, model selection and the tree
//     walk do nearly all the work; no transport is involved.
//
// Every workload reports every end-to-end metric, with --trace 0:
//
//   - setup_s: the median of three complete set-ups (generation,
//     training, publish, restore, warm-up);
//   - est_p50_us and est_p90_us: one estimate call — a routed plan or a
//     64-plan batch — timed from its due time in the open loop (in the
//     closed loop on whatif-batch), as the median over the run's
//     windows;
//   - plans_per_s: plans estimated per second in the closed loop, the
//     median over its windows;
//   - within_2x_share: the share of the workload's plan×resource pairs
//     the live model predicts within [0.5x, 2x] of the simulator's
//     actuals, deterministic per seed;
//   - heap_inuse_mb: the heap the serving stack holds at the end of the
//     run: heap in use after a GC, minus the same taken during set-up
//     once the benchmark's own data was built and before the stack
//     started.
//
// A run fails (correct false, exit code 1) if any request fails or any
// response differs from the in-process reference.
//
// The p99 and the counts of every layer are per-layer metrics,
// reported with --trace 1. That run repeats the workload with spans
// recorded around every other top-level request, adds the layer
// ladder, and writes the spans to .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how many complete set-ups a run makes; setup_s is
// their median and the last one is measured.
const setupRounds = 3

type workloadSpec struct {
	name  string
	setup func(e *env, dir string, st *setupTimes) (stack, error)
}

var workloads = []workloadSpec{
	{"routed-point", setupRouted},
	{"whatif-batch", setupWhatif},
}

// stack is one workload's running system.
type stack interface {
	// measure drives the workload for the run's seconds and records
	// its metrics.
	measure(e *env, r *report) error
	// probes lists the components whose counters the per-layer
	// metrics read.
	probes() *probes
	// ladder prepares the per-layer ladder over the workload's own
	// requests.
	ladder(e *env) (*ladder, error)
	// oracle is the reference every response was checked against.
	oracle() *oracle
	close()
}

// env is one run's parameters.
type env struct {
	seed    uint64
	seconds int
	conns   int // client connections and open-loop senders: GOMAXPROCS
	dir     string
	tr      *tracer // nil in the untraced run
}

// traced wraps a load phase's requests for the traced run: every
// other request records a span around its send, so the run measures
// its own tracing overhead on the same traffic.
func (e *env) traced(name string, o op) op {
	if e.tr == nil {
		return o
	}
	send := o.send
	o.send = func(i, w int) error {
		if i%2 == 1 {
			return send(i, w)
		}
		t0 := time.Now()
		err := send(i, w)
		e.tr.record(e.tr.newReq(), 0, name, t0, time.Now())
		return err
	}
	return o
}

// overhead reports, in the traced run, the median latency of traced
// minus untraced requests.
func (e *env) overhead(r *report, ss []sample) {
	if e.tr == nil {
		return
	}
	var on, off []time.Duration
	for i, s := range ss {
		if s.err != nil {
			continue
		}
		if i%2 == 0 {
			on = append(on, s.lat)
		} else {
			off = append(off, s.lat)
		}
	}
	r.layer("trace.overhead_us", us(summarize(on).P50-summarize(off).P50), "us")
}

// endToEnd and perLayer list every metric a run prints with --trace 0
// and --trace 1 respectively, with its unit, as BENCHMARK.json names
// them. Every workload reports every one of them.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"est_p50_us":      "us",
	"est_p90_us":      "us",
	"plans_per_s":     "1/s",
	"within_2x_share": "share",
	"heap_inuse_mb":   "MB",
}

var perLayer = map[string]string{
	// The ladder: median per request, and heap allocations per request.
	"features.extract_ns": "ns", "features.extract_allocs": "count",
	"core.predict_ns": "ns", "core.predict_allocs": "count",
	"plan.decode_us": "us", "plan.decode_allocs": "count",
	"serve.estimate_us": "us", "serve.estimate_allocs": "count",
	"serve.batch_ns_per_plan": "ns", "serve.batch_allocs_per_plan": "count",
	"serve.http_us": "us", "serve.http_allocs": "count",
	"stream.direct_us": "us", "stream.direct_allocs": "count",
	"cluster.routed_us": "us", "cluster.routed_allocs": "count",
	"feedback.observe_us": "us", "feedback.observe_allocs": "count",
	// Self times: differences of adjacent rungs.
	"serve.http_self_us": "us", "stream.self_us": "us", "cluster.hop_us": "us",
	// Counts read from the layers' public accessors.
	"serve.cache_hit_ratio": "share", "stream.batch_fill": "plans", "stream.holds_per_dispatch": "count",
	"cluster.cache_hit_ratio": "share", "cluster.affinity_share": "share",
	"cluster.shed": "count", "cluster.replica_errors": "count",
	"feedback.rejected": "count",
	// Set-up, training and persistence.
	"core.train_s": "s", "store.publish_ms": "ms", "store.restore_ms": "ms", "store.snapshot_bytes": "bytes",
	// The estimate tail.
	"est_p99_us": "us",
	// Validity of the run itself.
	"failed_share": "share", "loadgen.lag_p99_us": "us", "trace.overhead_us": "us",
	// Workload properties.
	"workload.repeat_share": "share", "workload.scaled_share": "share",
}

// complete checks that a printed metric set is exactly the listed one.
func complete(got map[string]metric, want map[string]string) error {
	for n, u := range want {
		if m, ok := got[n]; !ok || m.Unit != u {
			return fmt.Errorf("metric %s missing or not in %s", n, u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("metric %s is not listed", n)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's results.
type report struct {
	attempted, failed int
	e2eM, layerM      map[string]metric
	notes             []string
}

func newReport() *report {
	return &report{e2eM: map[string]metric{}, layerM: map[string]metric{}}
}

func (r *report) e2e(name string, v float64, unit string) { r.e2eM[name] = metric{v, unit} }

func (r *report) layer(name string, v float64, unit string) { r.layerM[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a phase's requests to attempted and its errors (transport
// errors, error responses and oracle mismatches alike) to failed.
func (r *report) count(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.err != nil {
			r.failed++
			if r.failed <= 3 {
				r.note("failed request: %v", s.err)
			}
		}
	}
}

// estimates reports the estimate metrics as medians over windows:
// est_p50_us, est_p90_us and est_p99_us from each window of the open
// loop (of the closed loop when the workload has none), and
// plans_per_s from each closed-loop window, at plansPer plans per
// estimate call. The p99 is a per-layer metric: on a shared two-core
// host a few milliseconds of CPU starvation move a sub-millisecond p99
// by more than any bound a gate could hold, so the gated tail is the
// p90.
func (r *report) estimates(rs []windowSamples, plansPer int) {
	var p50, p90, p99, tput []float64
	for k, rd := range rs {
		ss := rd.open
		if len(ss) == 0 {
			ss = rd.closed
		}
		s := summarize(latencies(ss))
		if s.TailQ < 0.99 {
			r.note("warning: window %d est p99 rests on fewer than %d samples beyond it", k+1, minBeyond)
		}
		p50 = append(p50, us(s.P50))
		p90 = append(p90, us(s.P90))
		p99 = append(p99, us(s.P99))
		tput = append(tput, float64(plansPer*len(latencies(rd.closed)))/rd.elapsed.Seconds())
		r.note("window %d: estimates %s, p90=%s; closed loop %.0f plans/s", k+1, s, s.P90, tput[k])
	}
	r.e2e("est_p50_us", medianFloat(p50), "us")
	r.e2e("est_p90_us", medianFloat(p90), "us")
	r.layer("est_p99_us", medianFloat(p99), "us")
	r.e2e("plans_per_s", medianFloat(tput), "1/s")
}

// lag reports how late the open-loop generator sent.
func (r *report) lag(ss []sample) {
	s := summarize(lags(ss))
	r.layer("loadgen.lag_p99_us", us(s.P99), "us")
	r.note("open-loop send lag: %s", s)
}

// repeatShare reports the share of requests whose plan was already
// requested earlier in the run.
func repeatShare[T any](r *report, reqs []T, planOf func(T) int) {
	seen := make(map[int]bool)
	rep := 0
	for _, rq := range reqs {
		p := planOf(rq)
		if seen[p] {
			rep++
		}
		seen[p] = true
	}
	r.layer("workload.repeat_share", float64(rep)/float64(max(len(reqs), 1)), "share")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "routed-point", "workload: routed-point or whatif-batch")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same plans, draws and arrival times")
	seconds := fs.Int("seconds", 10, "measured seconds, after set-up")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, conns: runtime.GOMAXPROCS(0),
		dir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	if *trace == 1 {
		e.tr = newTracer()
	}
	defer os.RemoveAll(e.dir)
	r, ok, err := runWorkload(spec, e)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", spec.name, err)
		return 1
	}
	for _, n := range r.notes {
		fmt.Fprintln(stderr, n)
	}
	metrics, want := r.e2eM, endToEnd
	if e.tr != nil {
		metrics, want = r.layerM, perLayer
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", spec.name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "e2ebench: write trace: %v\n", err)
			return 1
		}
	}
	printMetrics(stderr, r.e2eM, r.layerM)
	if err := complete(metrics, want); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", spec.name, err)
		return 1
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ok, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets the workload up setupRounds times, measures the
// last set-up, and reports whether every request succeeded and every
// response matched the oracle.
func runWorkload(spec *workloadSpec, e *env) (*report, bool, error) {
	var st stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	times := make([]setupTimes, setupRounds)
	for k := range times {
		if st != nil {
			st.close()
			st = nil
		}
		t0 := time.Now()
		s, err := spec.setup(e, filepath.Join(e.dir, fmt.Sprintf("setup%d", k)), &times[k])
		if err != nil {
			return nil, false, fmt.Errorf("setup: %w", err)
		}
		times[k].total = time.Since(t0)
		st = s
	}
	r := newReport()
	r.e2e("setup_s", medianOf(times, func(t setupTimes) float64 { return t.total.Seconds() }), "s")
	r.layer("core.train_s", medianOf(times, func(t setupTimes) float64 { return t.train.Seconds() }), "s")
	r.layer("store.publish_ms", medianOf(times, func(t setupTimes) float64 { return ms(t.publish) }), "ms")
	r.layer("store.restore_ms", medianOf(times, func(t setupTimes) float64 { return ms(t.restore) }), "ms")
	r.layer("store.snapshot_bytes", float64(times[len(times)-1].snapshotBytes), "bytes")

	// The discarded set-ups' garbage is collected now, not during the
	// first measured window.
	runtime.GC()
	p := st.probes()
	before := p.snapshot()
	if err := st.measure(e, r); err != nil {
		return nil, false, err
	}
	if e.tr != nil {
		l, err := st.ladder(e)
		if err != nil {
			return nil, false, fmt.Errorf("ladder: %w", err)
		}
		err = l.run(e, r)
		p.add(l.probes)
		l.close()
		if err != nil {
			return nil, false, fmt.Errorf("ladder: %w", err)
		}
	}
	p.snapshot().minus(before).report(r)
	r.layer("failed_share", float64(r.failed)/float64(max(r.attempted, 1)), "share")

	st.oracle().forget()
	base := times[len(times)-1].heapBase
	r.e2e("heap_inuse_mb", (float64(heapInuse())-float64(base))/(1<<20), "MB")

	mism := st.oracle().mismatches.Load()
	for _, m := range st.oracle().first {
		r.note("oracle mismatch: %s", m)
	}
	if mism > 0 {
		r.note("oracle: %d responses differ from the in-process reference", mism)
	} else {
		r.note("oracle: every response bit-identical to the in-process reference")
	}
	return r, mism == 0 && r.failed == 0, nil
}

func medianOf(ts []setupTimes, f func(setupTimes) float64) float64 {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = f(t)
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

func printMetrics(w io.Writer, sets ...map[string]metric) {
	for _, set := range sets {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}
