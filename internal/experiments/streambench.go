package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/stream"
)

// The streaming-transport baseline behind cmd/resbench -exp
// streambench: at each concurrency level it drives the same warm
// service twice — once over persistent streaming connections (whose
// in-flight requests the server coalesces across connections into
// micro-batched dispatches), once over keep-alive HTTP POST /estimate
// with one sequential client per connection — and records estimates/s
// for both into BENCH_stream.json. The streaming side keeps a small
// pipeline of requests in flight per connection (depth); the HTTP side
// is sequential per connection because HTTP/1.1 offers no safe
// pipelining — that asymmetry is the transport's feature, not a bench
// artifact. The speedup column is the transport's whole argument, and
// -stream-speedup-min checks it at every level: at one connection the
// batcher adds no wait (a request dispatches as soon as a slot is
// free), and at high concurrency the backlog turns N parked requests
// into N/fill pool dispatches while the writers coalesce frames into
// shared syscalls, so throughput holds where per-request HTTP dispatch
// saturates.

// StreamBenchLevel is one concurrency level's comparison.
type StreamBenchLevel struct {
	Conns int `json:"conns"`
	// StreamPerSec and HTTPPerSec are end-to-end estimates/s at this
	// concurrency over each transport (same plans, same warm cache).
	StreamPerSec float64 `json:"stream_per_sec"`
	HTTPPerSec   float64 `json:"http_per_sec"`
	// Speedup is StreamPerSec / HTTPPerSec.
	Speedup float64 `json:"speedup"`
	// StreamP50Micros/StreamP99Micros summarize per-request streaming
	// latency, including any wait for a free dispatch slot.
	StreamP50Micros float64 `json:"stream_p50_us"`
	StreamP99Micros float64 `json:"stream_p99_us"`
	// Dispatches is how many coalesced micro-batches the streaming run
	// cost; AvgBatchFill = requests/Dispatches is the realized
	// amortization.
	Dispatches   uint64  `json:"dispatches"`
	AvgBatchFill float64 `json:"avg_batch_fill"`
}

// StreamBench is the serializable streaming-transport baseline.
type StreamBench struct {
	Queries         int    `json:"queries"`
	Operators       int    `json:"operators"`
	Iterations      int    `json:"iterations"`
	Workers         int    `json:"workers"`
	GoMaxProcs      int    `json:"gomaxprocs"`
	RequestsPerConn int    `json:"requests_per_conn"`
	PipelineDepth   int    `json:"pipeline_depth"`
	Resource        string `json:"resource"`

	Levels []StreamBenchLevel `json:"levels"`
}

// RunStreamBench measures streaming vs HTTP estimate throughput at the
// given connection counts. n is the workload size (queries), iters the
// MART iterations of the quick benchmark model, reqsPerConn how many
// estimates each connection issues, depth how many of those a
// streaming connection keeps in flight at once (HTTP connections are
// always sequential).
func RunStreamBench(n, iters, reqsPerConn, depth int, conns []int) (*StreamBench, error) {
	if reqsPerConn <= 0 {
		reqsPerConn = 50
	}
	if depth <= 0 {
		depth = 5
	}
	for depth > 1 && reqsPerConn%depth != 0 {
		depth-- // keep per-goroutine request counts exact
	}
	est, plans, err := serveBenchWorkload(n, iters)
	if err != nil {
		return nil, err
	}
	res := &StreamBench{
		Queries:         len(plans),
		Iterations:      iters,
		Workers:         2,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		RequestsPerConn: reqsPerConn,
		PipelineDepth:   depth,
		Resource:        plan.CPUTime.String(),
	}
	for _, p := range plans {
		res.Operators += len(p.Nodes())
	}

	// One warm service behind both transports: the comparison is about
	// transport + dispatch overhead, not model evaluation.
	svc := newBenchService(est, 1<<16, false)
	defer svc.Close()
	if _, err := drive(svc, plans, nil); err != nil {
		return nil, err
	}

	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		return nil, err
	}
	defer ss.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := &http.Server{Handler: svc.Handler()}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	httpURL := "http://" + ln.Addr().String() + "/estimate"

	// Pre-encode every request body once — both transports replay the
	// identical bytes, and neither pays a per-call marshal.
	streamBodies := make([][]byte, len(plans))
	httpBodies := make([][]byte, len(plans))
	for i, p := range plans {
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			return nil, err
		}
		httpBodies[i], err = json.Marshal(map[string]any{
			"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(enc),
		})
		if err != nil {
			return nil, err
		}
		streamBodies[i], err = json.Marshal(&stream.Request{Schema: "tpch", Resource: "cpu", Plan: enc})
		if err != nil {
			return nil, err
		}
	}

	for _, c := range conns {
		lvl := StreamBenchLevel{Conns: c}

		// Streaming: c persistent connections, each keeping up to depth
		// estimates in flight — so at any instant up to c×depth requests
		// sit across the coalescer, which is how the transport is meant
		// to be driven.
		before := ss.Stats()
		clients := make([]*stream.Client, c)
		for i := range clients {
			if clients[i], err = stream.Dial(ss.Addr()); err != nil {
				return nil, err
			}
		}
		bodies := make([][][]byte, c*depth)
		for i := range bodies {
			bodies[i] = streamBodies
		}
		lat, streamDur, err := driveStream(clients, depth, bodies, reqsPerConn/depth)
		for _, cl := range clients {
			cl.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("streambench: %d conns: %w", c, err)
		}
		after := ss.Stats()
		total := c * reqsPerConn
		lvl.StreamPerSec = float64(total) / streamDur.Seconds()
		lvl.Dispatches = after.Dispatches - before.Dispatches
		if lvl.Dispatches > 0 {
			lvl.AvgBatchFill = float64(after.Requests-before.Requests) / float64(lvl.Dispatches)
		}
		mode := summarizeMode(lat)
		lvl.StreamP50Micros, lvl.StreamP99Micros = mode.P50Micros, mode.P99Micros

		// HTTP: the same concurrency and request count, one sequential
		// keep-alive client per connection.
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        c + 8,
			MaxIdleConnsPerHost: c + 8,
		}}
		var wg sync.WaitGroup
		errs := make(chan error, c)
		start := time.Now()
		for i := 0; i < c; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < reqsPerConn; r++ {
					resp, err := client.Post(httpURL, "application/json",
						bytes.NewReader(httpBodies[(i+r)%len(httpBodies)]))
					if err != nil {
						errs <- err
						return
					}
					// Drain, don't decode: the stream side hands back raw
					// bytes too, so the comparison is transport-only.
					_, derr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if derr != nil {
						errs <- derr
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("estimate: %s", resp.Status)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		httpDur := time.Since(start)
		client.CloseIdleConnections()
		select {
		case err := <-errs:
			return nil, fmt.Errorf("streambench: %d conns (http): %w", c, err)
		default:
		}
		lvl.HTTPPerSec = float64(total) / httpDur.Seconds()
		lvl.Speedup = lvl.StreamPerSec / lvl.HTTPPerSec
		res.Levels = append(res.Levels, lvl)
	}
	return res, nil
}

// driveStream runs len(bodies) closed-loop workers: worker w sends
// perWorker estimates over clients[w/depth], cycling through bodies[w]
// from offset w. It returns every request's latency and the wall-clock
// time of the whole run.
func driveStream(clients []*stream.Client, depth int, bodies [][][]byte, perWorker int) ([]time.Duration, time.Duration, error) {
	var wg sync.WaitGroup
	errs := make(chan error, len(bodies))
	lat := make([][]time.Duration, len(bodies))
	start := time.Now()
	for w := range bodies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, b := clients[w/depth], bodies[w]
			for r := 0; r < perWorker; r++ {
				t0 := time.Now()
				if _, err := cl.EstimateBytes(context.Background(), b[(w+r)%len(b)]); err != nil {
					errs <- err
					return
				}
				lat[w] = append(lat[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	dur := time.Since(start)
	select {
	case err := <-errs:
		return nil, 0, err
	default:
	}
	return slices.Concat(lat...), dur, nil
}
