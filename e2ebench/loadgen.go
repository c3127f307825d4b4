package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// newRand returns the deterministic generator for one named input
// stream of a run. Every input the benchmark generates (plan pools,
// request draws, arrival gaps) comes from a stream split off the
// --seed by name, so the same seed gives the same inputs and adding a
// stream does not shift the others.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// poissonSchedule returns n send offsets of a Poisson arrival process
// at rate per second: exponential gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// zipfDraws returns n indexes into a pool of size items, Zipf-skewed
// with exponent s (> 1): a few hot items carry most of the draws.
func zipfDraws(rng *rand.Rand, s float64, size, n int) []int {
	z := rand.NewZipf(rng, s, 1, uint64(size-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// summary is one timing population: the median, plus the highest
// standard percentile that still has at least minBeyond samples above
// it, with the sample count. A p99 drawn from 300 samples rests on
// three values and is not reported as p99.
type summary struct {
	N     int
	P50   time.Duration
	P90   time.Duration
	TailQ float64 // the tail quantile reported, e.g. 0.99; 0 when N is too small
	Tail  time.Duration
	P99   time.Duration // nearest-rank p99, whether or not TailQ reaches it
}

const minBeyond = 10

var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.9}

// supportedTail returns the highest tail quantile with at least
// minBeyond of n samples beyond it, or 0 when none qualifies.
func supportedTail(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q
		}
	}
	return 0
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(samples []time.Duration) summary {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := summary{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9), P99: quantile(s, 0.99)}
	if q := supportedTail(len(s)); q > 0 {
		out.TailQ, out.Tail = q, quantile(s, q)
	}
	return out
}

func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("n=%d p50=%s (too few samples for a tail)", s.N, s.P50)
	}
	return fmt.Sprintf("n=%d p50=%s p%s=%s (%d beyond)", s.N, s.P50,
		trimQ(s.TailQ), s.Tail, int(float64(s.N)*(1-s.TailQ)+0.5))
}

func trimQ(q float64) string {
	return fmt.Sprintf("%g", q*100)
}

// us and ms convert a duration to fractional micro- and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one completed request of a load phase.
type sample struct {
	lat time.Duration // to completion, from the due time in open loops (see openLoop)
	lag time.Duration // from due time to send
	err error
}

// op is one request of a load phase. send(i, sender) issues request i
// and blocks until it completes, keeping the response where check can
// find it; check(i, sender) then verifies that response. Only send is
// timed, so the benchmark's own checking is not charged to the system.
type op struct {
	send, check func(i, sender int) error
}

// do runs request i and returns how long its send took.
func (o op) do(i, sender int) (time.Duration, error) {
	t0 := time.Now()
	err := o.send(i, sender)
	served := time.Since(t0)
	if err == nil && o.check != nil {
		err = o.check(i, sender)
	}
	return served, err
}

// openLoop sends requests at the scheduled offsets from start, using
// `senders` goroutines, each owning one connection's worth of calls.
// Latency is timed from the due time on a punctual timeline: a request
// that arrives while its sender is still busy waits for it, so a stall
// also charges the requests queued behind it, but the generator's own
// lateness is not charged. The sleep that paces the generator overshoots by up to
// the host timer's resolution (about 1ms on small VMs); a request sent
// late by an idle sender is timed from its send, and the sender counts
// as busy only for as long as its requests took to serve. lag records
// how late every request was actually sent.
func openLoop(start time.Time, sched []time.Duration, senders int, o op) []sample {
	out := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var free time.Time // when this sender would be free on the punctual timeline
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				served, err := o.do(i, w)
				begin := due
				if free.After(due) {
					begin = free
				}
				free = begin.Add(served)
				out[i] = sample{lat: free.Sub(due), lag: sent.Sub(due), err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs `workers` goroutines that each issue their next
// request as soon as the previous one completes, until the deadline.
// Requests are numbered from first on. It returns the samples (latency
// from send) and the wall time the phase took, from start to the last
// completion.
func closedLoop(workers, first int, until time.Time, o op) ([]sample, time.Duration) {
	var seq atomic.Int64
	seq.Store(int64(first))
	per := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(until) {
				i := int(seq.Add(1) - 1)
				lat, err := o.do(i, w)
				per[w] = append(per[w], sample{lat: lat, err: err})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// phases is a measured run: an open loop at a fixed rate and then a
// closed loop, each split into n equal windows. Metrics are taken per
// window and reported as the median over windows, so a burst of
// interference decides at most one window. The closed loop comes last
// so its allocation and queue build-up do not spill into the open
// loop, and it starts with closedWarm of untimed requests, so its
// first window does not pay for the switch (heap growth, the GC pacer
// settling at the higher allocation rate).
type phases struct {
	n                int
	openDur, closed  time.Duration // per window; openDur 0 skips the open loop
	rate             float64
	senders, workers int
	arrivals         *rand.Rand
}

// windowSamples is what one window of each phase measured.
type windowSamples struct {
	open, closed []sample
	elapsed      time.Duration // of the closed-loop window
}

const closedWarm = time.Second

// openPerWindow is the number of open-loop requests each window sends.
func (p phases) openPerWindow() int { return int(p.rate * p.openDur.Seconds()) }

// run drives both phases and returns each window's samples and the
// closed loop's untimed warm-up. Open-loop request i (counted across
// windows) is run by openOp; closed-loop requests are numbered across
// the warm-up and the windows.
func (p phases) run(openOp, closedOp op) ([]windowSamples, []sample) {
	out := make([]windowSamples, p.n)
	nOpen := p.openPerWindow()
	for k := range out {
		if nOpen == 0 {
			break
		}
		sched := poissonSchedule(p.arrivals, p.rate, nOpen)
		base := k * nOpen
		out[k].open = openLoop(time.Now().Add(time.Millisecond), sched, p.senders, op{
			send:  func(i, w int) error { return openOp.send(base+i, w) },
			check: func(i, w int) error { return openOp.check(base+i, w) },
		})
	}
	warm, _ := closedLoop(p.workers, 0, time.Now().Add(closedWarm), closedOp)
	closedSeq := len(warm)
	for k := range out {
		out[k].closed, out[k].elapsed = closedLoop(p.workers, closedSeq, time.Now().Add(p.closed), closedOp)
		closedSeq += len(out[k].closed)
	}
	return out, warm
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// flatten concatenates one phase of every window.
func flatten(rs []windowSamples, open bool) []sample {
	var out []sample
	for _, r := range rs {
		if open {
			out = append(out, r.open...)
		} else {
			out = append(out, r.closed...)
		}
	}
	return out
}

// forEach calls fn for i in [0, n) from `workers` goroutines and
// returns the first error.
func forEach(workers, n int, fn func(i, worker int) error) error {
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i, w); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// latencies extracts the latencies of successful samples.
func latencies(ss []sample) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.err == nil {
			out = append(out, s.lat)
		}
	}
	return out
}

func lags(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lag
	}
	return out
}
