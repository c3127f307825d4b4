package experiments

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The replica-scaling baseline behind cmd/resbench -exp clusterbench:
// at each fleet size it stands up N in-process resserve replicas
// (sharing one model registry, as a fleet restored from one store
// snapshot would) behind a real router and drives closed-loop load
// both through the router's streaming listener and straight at the
// replicas' own, writing both throughputs into BENCH_cluster.json.
//
// The protocol is weak scaling: per-replica offered load is held
// constant (conns × depth workers pinned to schemas the ring assigns
// to that replica), so every request is an affinity hit and fleet size
// N carries N× the load of fleet size 1. Replicas batch without a
// coalescing wait, so on one host they are CPU-bound and share its
// cores: the scaling efficiency (throughput_N / N) / throughput_1
// measures the host and is only reported. The guard checks the router
// efficiency instead — routed est/s over direct-to-replica est/s at the
// same fleet and load, the share of the replicas' throughput the
// router hop keeps. The router's decision counters are recorded too
// (spillover > 0 would mean affinity was not actually measured).

// clusterRounds is how many direct/routed run pairs each fleet size
// alternates through.
const clusterRounds = 4

// ClusterBenchFleet is one fleet size's measurement.
type ClusterBenchFleet struct {
	Replicas int `json:"replicas"`
	// Requests is the total estimates driven through the router at
	// this fleet size (weak scaling: proportional to Replicas).
	Requests int `json:"requests"`
	// EstPerSec is router-side end-to-end throughput; PerReplicaPerSec
	// divides it by the fleet size.
	EstPerSec        float64 `json:"est_per_sec"`
	PerReplicaPerSec float64 `json:"per_replica_per_sec"`
	P50Micros        float64 `json:"p50_us"`
	P99Micros        float64 `json:"p99_us"`
	// Efficiency is PerReplicaPerSec / the 1-replica EstPerSec: 1.0 is
	// perfectly linear scaling.
	Efficiency float64 `json:"efficiency"`
	// DirectEstPerSec is the same workers' throughput against the
	// replicas' stream listeners, bypassing the router;
	// RouterEfficiency is EstPerSec / DirectEstPerSec.
	DirectEstPerSec  float64 `json:"direct_est_per_sec"`
	RouterEfficiency float64 `json:"router_efficiency"`
	// Affinity/Spillover/Shed are the router's routing-decision
	// counters for this run. Spillover and Shed should be 0 — anything
	// else means the run measured overload behavior, not affinity
	// scaling.
	Affinity  uint64 `json:"affinity"`
	Spillover uint64 `json:"spillover"`
	Shed      uint64 `json:"shed"`
}

// ClusterBench is the serializable replica-scaling baseline.
type ClusterBench struct {
	Queries           int `json:"queries"`
	Operators         int `json:"operators"`
	Iterations        int `json:"iterations"`
	GoMaxProcs        int `json:"gomaxprocs"`
	SchemasPerReplica int `json:"schemas_per_replica"`
	ConnsPerReplica   int `json:"conns_per_replica"`
	PipelineDepth     int `json:"pipeline_depth"`
	RequestsPerWorker int `json:"requests_per_worker"`

	Fleets []ClusterBenchFleet `json:"fleets"`
	// MinRouterEfficiency is the lowest RouterEfficiency across fleets
	// — the number the -cluster-efficiency-min guard checks.
	MinRouterEfficiency float64 `json:"min_router_efficiency"`
}

// clusterReplica is one in-process replica: service, stream listener
// and HTTP listener, the surfaces a real resserve process exposes.
type clusterReplica struct {
	svc  *serve.Service
	ss   *stream.Server
	hsrv *http.Server
	addr string
}

func (r *clusterReplica) close() {
	r.hsrv.Close()
	r.ss.Close()
	r.svc.Close()
}

func startClusterReplica(reg *serve.Registry) (*clusterReplica, error) {
	svc := serve.New(serve.Options{Registry: reg, Workers: 2, DisableTelemetry: true})
	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		svc.Close()
		return nil, err
	}
	svc.SetStreamAddr(ss.Addr())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ss.Close()
		svc.Close()
		return nil, err
	}
	hsrv := &http.Server{Handler: svc.Handler()}
	go hsrv.Serve(ln)
	return &clusterReplica{svc: svc, ss: ss, hsrv: hsrv, addr: ln.Addr().String()}, nil
}

// assignSchemas walks a synthetic schema pool ("w000", "w001", ...)
// until the ring over addrs has granted each replica perReplica
// schemas, and returns the per-replica assignments in addrs order.
// Using the same ring construction as the router makes the bench's
// idea of ownership exact, not probabilistic.
func assignSchemas(addrs []string, perReplica int) [][]string {
	ring := cluster.NewRing(addrs, 0)
	byAddr := make(map[string][]string, len(addrs))
	full := 0
	for i := 0; full < len(addrs); i++ {
		if i > 10000*len(addrs) {
			// Unreachable with a sane ring; guards against looping
			// forever if placement ever degenerates.
			break
		}
		s := fmt.Sprintf("w%03d", i)
		owner := ring.Pick(s)
		if len(byAddr[owner]) >= perReplica {
			continue
		}
		byAddr[owner] = append(byAddr[owner], s)
		if len(byAddr[owner]) == perReplica {
			full++
		}
	}
	out := make([][]string, len(addrs))
	for i, a := range addrs {
		out[i] = byAddr[a]
	}
	return out
}

// RunClusterBench measures router throughput at each fleet size in
// fleets (e.g. 1, 2, 4). n is the workload size, iters the benchmark
// model's MART iterations, schemasPer the schemas owned per replica,
// conns the streaming connections per replica's worth of load, depth
// the in-flight estimates per connection, reqs the estimates each
// worker issues in each timed run.
func RunClusterBench(n, iters, schemasPer, conns, depth, reqs int, fleets []int) (*ClusterBench, error) {
	if schemasPer <= 0 {
		schemasPer = 4
	}
	if conns <= 0 {
		conns = 2
	}
	if depth <= 0 {
		depth = 4
	}
	if reqs <= 0 {
		reqs = 200
	}
	est, plans, err := serveBenchWorkload(n, iters)
	if err != nil {
		return nil, err
	}
	res := &ClusterBench{
		Queries:           len(plans),
		Iterations:        iters,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		SchemasPerReplica: schemasPer,
		ConnsPerReplica:   conns,
		PipelineDepth:     depth,
		RequestsPerWorker: reqs,
	}
	for _, p := range plans {
		res.Operators += len(p.Nodes())
	}
	encoded := make([]json.RawMessage, len(plans))
	for i, p := range plans {
		if encoded[i], err = plan.EncodeJSON(p); err != nil {
			return nil, err
		}
	}

	// One registry shared by every replica at every fleet size: the
	// in-process stand-in for a fleet restored from one store snapshot.
	// The wildcard schema serves every synthetic schema name the ring
	// assignment produces.
	reg := serve.NewRegistry()
	reg.Publish("", est)

	for _, size := range fleets {
		fleet, err := runClusterFleet(reg, encoded, size, schemasPer, conns, depth, reqs)
		if err != nil {
			return nil, fmt.Errorf("clusterbench: fleet of %d: %w", size, err)
		}
		res.Fleets = append(res.Fleets, *fleet)
	}
	// Efficiency is relative to the measured 1-replica run when the
	// sweep has one (the usual 1,2,4 shape), else to the smallest
	// fleet's per-replica throughput.
	if len(res.Fleets) > 0 {
		base := res.Fleets[0].PerReplicaPerSec
		res.MinRouterEfficiency = res.Fleets[0].RouterEfficiency
		for i := range res.Fleets {
			res.Fleets[i].Efficiency = res.Fleets[i].PerReplicaPerSec / base
			res.MinRouterEfficiency = min(res.MinRouterEfficiency, res.Fleets[i].RouterEfficiency)
		}
	}
	return res, nil
}

func runClusterFleet(reg *serve.Registry, encoded []json.RawMessage, size, schemasPer, conns, depth, reqs int) (*ClusterBenchFleet, error) {
	replicas := make([]*clusterReplica, 0, size)
	defer func() {
		for _, r := range replicas {
			r.close()
		}
	}()
	addrs := make([]string, 0, size)
	for i := 0; i < size; i++ {
		r, err := startClusterReplica(reg)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, r)
		addrs = append(addrs, r.addr)
	}

	// The router cache is disabled so forwarding is what gets
	// measured; with it on, a repeated-body closed loop measures the
	// router's LRU instead of the fleet.
	rt, err := cluster.New(cluster.Options{
		Replicas:     addrs,
		CacheEntries: -1,
		PollInterval: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	streamAddr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// Pre-encode each worker's request bodies: workers are pinned to
	// the schemas the ring assigns to their replica, so every request
	// is an affinity hit and replicas proceed independently.
	assigned := assignSchemas(addrs, schemasPer)
	var bodies [][][]byte
	for ri := range replicas {
		for c := 0; c < conns*depth; c++ {
			schema := assigned[ri][c%len(assigned[ri])]
			w := make([][]byte, len(encoded))
			for i, enc := range encoded {
				if w[i], err = json.Marshal(&stream.Request{Schema: schema, Resource: "cpu", Plan: enc}); err != nil {
					return nil, err
				}
			}
			bodies = append(bodies, w)
		}
	}

	// One streaming connection per conns slot, shared by depth workers
	// — the same shape streambench drives a single replica with. Worker
	// w uses connection w/depth, which belongs to replica
	// w/(conns×depth) in both sets: the routed set dials the router,
	// the direct set that replica's own stream listener.
	routed := make([]*stream.Client, size*conns)
	direct := make([]*stream.Client, size*conns)
	for i := range routed {
		if routed[i], err = stream.Dial(streamAddr); err != nil {
			return nil, err
		}
		defer routed[i].Close()
		if direct[i], err = stream.Dial(replicas[i/conns].ss.Addr()); err != nil {
			return nil, err
		}
		defer direct[i].Close()
	}

	// Warm pass: every (schema, plan) body once, so the timed runs
	// measure each replica's steady state (prediction caches hot)
	// rather than first-touch model evaluation.
	if _, _, err := driveStream(routed, depth, bodies, len(encoded)); err != nil {
		return nil, err
	}

	// Direct and routed runs alternate over several rounds so both
	// sides see the same shared-host conditions; each throughput is
	// over its own summed time.
	var lat []time.Duration
	var dur, directDur time.Duration
	for r := 0; r < clusterRounds; r++ {
		_, d, err := driveStream(direct, depth, bodies, reqs)
		if err != nil {
			return nil, err
		}
		directDur += d
		l, d, err := driveStream(routed, depth, bodies, reqs)
		if err != nil {
			return nil, err
		}
		dur += d
		lat = append(lat, l...)
	}
	total := clusterRounds * len(bodies) * reqs

	m := rt.Metrics()
	mode := summarizeMode(lat)
	fleet := &ClusterBenchFleet{
		Replicas:        size,
		Requests:        total,
		EstPerSec:       float64(total) / dur.Seconds(),
		DirectEstPerSec: float64(total) / directDur.Seconds(),
		P50Micros:       mode.P50Micros,
		P99Micros:       mode.P99Micros,
		Affinity:        m.Decisions.Affinity,
		Spillover:       m.Decisions.Spillover,
		Shed:            m.Decisions.Shed,
	}
	fleet.PerReplicaPerSec = fleet.EstPerSec / float64(size)
	fleet.RouterEfficiency = fleet.EstPerSec / fleet.DirectEstPerSec
	return fleet, nil
}
