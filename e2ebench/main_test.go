package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/serve"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var ss []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted input
		ss = append(ss, time.Duration(i)*time.Microsecond)
	}
	s := summarize(ss)
	if s.N != 1000 || s.P50 != 500*time.Microsecond || s.P99 != 990*time.Microsecond {
		t.Fatalf("summary %+v", s)
	}
	if s.TailQ != 0.99 || s.Tail != s.P99 {
		t.Fatalf("tail %v = %v, want p99 with 10 samples beyond", s.TailQ, s.Tail)
	}
	if got := summarize(ss[:500]); got.TailQ != 0.9 {
		t.Fatalf("500 samples report p%g, want p90", got.TailQ*100)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	const rate, n = 400.0, 20000
	a := poissonSchedule(newRand(7, "arrivals"), rate, n)
	b := poissonSchedule(newRand(7, "arrivals"), rate, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(newRand(8, "arrivals"), rate, n)) {
		t.Fatal("another seed gave the same schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(newRand(7, "other"), rate, n)) {
		t.Fatal("another stream gave the same schedule")
	}
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offset %d goes back in time", i)
		}
	}
	if got := float64(n) / a[n-1].Seconds(); math.Abs(got-rate) > 0.05*rate {
		t.Fatalf("realized rate %.1f/s, want %.0f/s", got, rate)
	}
	z1 := zipfDraws(newRand(7, "draws"), 1.1, 384, 1000)
	z2 := zipfDraws(newRand(7, "draws"), 1.1, 384, 1000)
	if !reflect.DeepEqual(z1, z2) {
		t.Fatal("same seed gave two draw sequences")
	}
}

// A request that waits for a busy sender is charged from its due time;
// the generator's own lateness is not charged.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const work = 5 * time.Millisecond
	ss := openLoop(time.Now(), []time.Duration{0, 0, 50 * time.Millisecond}, 1, op{send: func(int, int) error {
		time.Sleep(work)
		return nil
	}})
	if ss[0].lat < work || ss[0].lat >= 2*work {
		t.Errorf("first request: %v, want its own %v", ss[0].lat, work)
	}
	if ss[1].lat < 2*work {
		t.Errorf("queued request: %v, want at least %v from its due time", ss[1].lat, 2*work)
	}
	if ss[2].lat >= 2*work || ss[2].lag < 0 {
		t.Errorf("idle sender's request: %v (sent %v late), want its own %v", ss[2].lat, ss[2].lag, work)
	}
}

// A request is timed without the benchmark's check of its response,
// and a failed check fails the request.
func TestOpTimesSendOnly(t *testing.T) {
	bad := errors.New("mismatch")
	o := op{
		send:  func(int, int) error { time.Sleep(time.Millisecond); return nil },
		check: func(int, int) error { time.Sleep(30 * time.Millisecond); return bad },
	}
	lat, err := o.do(0, 0)
	if lat >= 30*time.Millisecond {
		t.Errorf("timed %v, which includes the check", lat)
	}
	if err != bad {
		t.Errorf("error %v, want the check's", err)
	}
}

func TestOracleCatchesPerturbedFloat(t *testing.T) {
	var st setupTimes
	m, err := trainModels(&st)
	if err != nil {
		t.Fatal(err)
	}
	plans := tpchPlans(3, "oracle-test", 8)
	or := newOracle(plans)
	if err := or.prime(m); err != nil {
		t.Fatal(err)
	}
	mi := []serve.ModelInfo{
		{Schema: "s", Resource: plan.CPUTime.String(), Version: 1},
		{Schema: "s", Resource: plan.LogicalIO.String(), Version: 2},
	}
	for _, info := range mi {
		if err := or.learn(refOf(info), m.forResource(info.Resource)); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := or.reference(5, mi)
	if err != nil {
		t.Fatal(err)
	}
	body := func(cpu, io float64) []byte {
		b, err := json.Marshal(map[string]any{"models": mi, "totals": []float64{cpu, io}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := or.checkBody(5, body(ref.CPU, ref.IO)); err != nil {
		t.Fatalf("exact totals rejected: %v", err)
	}
	if err := or.checkBody(5, body(ref.CPU, math.Nextafter(ref.IO, math.Inf(1)))); err == nil {
		t.Fatal("a total one ulp off passed the oracle")
	}
	if err := or.checkBody(4, body(ref.CPU, ref.IO)); err == nil {
		t.Fatal("another plan's totals passed the oracle")
	}
	stale := append([]serve.ModelInfo(nil), mi...)
	stale[0].Version = 9
	b, _ := json.Marshal(map[string]any{"models": stale, "totals": []float64{ref.CPU, ref.IO}})
	if err := or.checkBody(5, b); err == nil {
		t.Fatal("an unknown model version passed the oracle")
	}
	if got := or.mismatches.Load(); got != 3 {
		t.Fatalf("%d mismatches counted, want 3", got)
	}
}

// The metric lists the program checks its output against are the ones
// BENCHMARK.json declares, and every workload it names exists.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bj.Workloads {
		found := false
		for _, w := range workloads {
			found = found || w.name == bw.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", bw.Name)
		}
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		want map[string]string
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		got := make(map[string]string)
		for _, m := range c.list {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BENCHMARK.json lists %v, program prints %v", got, c.want)
		}
	}
}
