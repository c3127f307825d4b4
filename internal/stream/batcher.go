package stream

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/serve"
)

// The micro-batcher. Requests that are in flight at the same instant —
// regardless of which connection carried them — are collected into
// per-route groups and dispatched as one EstimateStream call. Batching
// is natural, not timed: the first request of a group starts its
// flusher, and the flusher takes the whole group as soon as a dispatch
// slot is free. An idle server therefore answers a lone request with
// no added wait, and a busy one batches exactly as much as the backlog
// offers.
//
// Dispatches run through a slot semaphore sized to the service's
// worker count. That is the accumulation mechanism: while every slot
// is busy, a group stays in the map, keeps absorbing arrivals up to
// maxBatch plans, and leaves only when a slot frees. Under sustained
// load the realized fill sizes itself from the arrival rate × the
// service time of the dispatches ahead of it.

// maxBatch bounds a coalesced dispatch's plan count: past 64 the batch
// path's per-plan amortization has flattened and a bigger batch only
// adds queueing for its first member. A full group leaves the map so
// the next arrival starts a fresh one.
const maxBatch = 64

// groupKey routes a request to its coalescing group. Requests can only
// share a dispatch when they share everything the batch entry point
// fixes per call: model routing (schema + resource set) and deadline.
type groupKey struct {
	schema    string
	resources string // canonical wire names, comma-joined, request order
	timeoutMS int
}

// pending is one request waiting in a group.
type pending struct {
	conn *serverConn
	seq  uint64
	plan *plan.Plan
	enq  time.Time
}

// group accumulates pending requests for one key until its flusher
// takes it.
type group struct {
	key     groupKey
	kinds   []plan.ResourceKind
	members []pending
}

type batcher struct {
	srv *Server
	// slots caps concurrent dispatches (see the package comment); a
	// dispatch holds its slot only through the service call, releasing
	// before the response fan-out so the pool never idles on our writes.
	slots chan struct{}

	mu     sync.Mutex
	groups map[groupKey]*group
}

func newBatcher(srv *Server, slots int) *batcher {
	return &batcher{
		srv:    srv,
		slots:  make(chan struct{}, slots),
		groups: make(map[groupKey]*group),
	}
}

// canonicalResources builds the group key's resource component from
// the resolved kinds (post-parse, deduplicated), so "CPU", "cpu" and a
// duplicated name all land in the same group.
func canonicalResources(kinds []plan.ResourceKind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.WireName()
	}
	return strings.Join(names, ",")
}

// enqueue adds one decoded request to its coalescing group. The first
// member starts the group's flusher; the maxBatch-th closes the group
// to further arrivals. Never blocks on the pool — the flusher waits
// for a slot on its own goroutine so the caller (a connection's read
// loop) keeps draining frames, which is what keeps batches full under
// load.
func (b *batcher) enqueue(conn *serverConn, seq uint64, kinds []plan.ResourceKind, p *plan.Plan, timeoutMS int, schema string) {
	key := groupKey{schema: schema, resources: canonicalResources(kinds), timeoutMS: timeoutMS}
	b.mu.Lock()
	g, ok := b.groups[key]
	if !ok {
		g = &group{key: key, kinds: kinds, members: make([]pending, 0, maxBatch)}
		b.groups[key] = g
		go b.flush(g)
	}
	g.members = append(g.members, pending{conn: conn, seq: seq, plan: p, enq: time.Now()})
	if len(g.members) >= maxBatch {
		delete(b.groups, key)
	}
	b.mu.Unlock()
}

// flush is a group's flusher: it waits for a dispatch slot, then takes
// the group out of the map (unless it already left full) and
// dispatches it. The group keeps absorbing arrivals while the flusher
// waits.
//
// After the slot is won the flusher yields once before cutting the
// group. Read loops that already hold a decoded frame for this route
// are runnable at that instant, and the yield lets them land in the
// group instead of opening the next one; without it a freed slot
// tears the group off a few requests early, and at high connection
// counts fill collapses into many small dispatches. On an idle server
// nothing else is runnable and the yield returns at once.
func (b *batcher) flush(g *group) {
	b.slots <- struct{}{}
	runtime.Gosched()
	b.mu.Lock()
	if b.groups[g.key] == g {
		delete(b.groups, g.key)
	}
	b.mu.Unlock()
	b.dispatch(g)
}

// dispatch runs one coalesced group through the serving pool and fans
// the per-plan responses (or one shared error) back to each member's
// connection, matched by sequence ID. The caller must hold a dispatch
// slot; dispatch releases it when the service call returns.
func (b *batcher) dispatch(g *group) {
	srv := b.srv
	wait := time.Since(g.members[0].enq)
	srv.dispatches.Add(1)
	srv.batchFill.Observe(len(g.members))

	plans := make([]*plan.Plan, len(g.members))
	for i, m := range g.members {
		plans[i] = m.plan
	}
	resps, err := srv.opts.Service.EstimateStream(context.Background(), serve.BatchRequest{
		Schema:    g.key.schema,
		Resources: g.kinds,
		Plans:     plans,
		Timeout:   time.Duration(g.key.timeoutMS) * time.Millisecond,
	}, wait)
	<-b.slots // the pool is free for the next batch; fan-out is ours alone
	if err != nil {
		// The whole group shares routing and deadline, so a lookup or
		// timeout failure is every member's failure; fan the same
		// envelope — HTTP status codes and all — to each.
		_, code := serve.ErrorCode(err)
		for _, m := range g.members {
			m.conn.sendError(m.seq, err.Error(), code)
		}
		return
	}
	for i, m := range g.members {
		m.conn.sendResponse(m.seq, resps[i])
	}
}
