package cluster

import (
	"sync/atomic"
	"testing"
)

func newBareRouter(opts Options) *Router {
	o := opts.withDefaults()
	return &Router{
		opts:      o,
		logger:    o.Logger,
		perClient: make(map[string]*atomic.Int64),
	}
}

// TestAdmissionBounds pins the load-shedding counters: one client
// cannot exceed its per-client bound, the fleet-wide inflight bound
// caps everyone, releases restore capacity, and every refusal counts
// a shed decision.
func TestAdmissionBounds(t *testing.T) {
	rt := newBareRouter(Options{MaxInflight: 2, MaxPerClient: 1})

	relA, ok := rt.admit("client-a")
	if !ok {
		t.Fatal("first request from client-a shed")
	}
	if _, ok := rt.admit("client-a"); ok {
		t.Fatal("client-a exceeded its per-client bound")
	}
	relB, ok := rt.admit("client-b")
	if !ok {
		t.Fatal("client-b shed under the global bound")
	}
	if _, ok := rt.admit("client-c"); ok {
		t.Fatal("global inflight bound not enforced")
	}
	if got := rt.decShed.Load(); got != 2 {
		t.Fatalf("shed decisions = %d, want 2", got)
	}

	relA()
	relB()
	if rt.inflight.Load() != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", rt.inflight.Load())
	}
	relA2, ok := rt.admit("client-a")
	if !ok {
		t.Fatal("client-a shed after its slot was released")
	}
	relA2()
}

// TestResponseCacheTokenAndLRU pins the cache's two eviction rules:
// token mismatch is a miss (stale model entries never serve), and
// capacity evicts least-recently-used.
func TestResponseCacheTokenAndLRU(t *testing.T) {
	c := newResponseCache(2)
	c.put("a", "v1", []byte("ra"))
	if got, ok := c.get("a", "v1"); !ok || string(got) != "ra" {
		t.Fatalf("get(a,v1) = %q,%v", got, ok)
	}
	if _, ok := c.get("a", "v2"); ok {
		t.Fatal("stale-token entry served")
	}
	c.put("b", "v1", []byte("rb"))
	c.get("a", "v1")               // a is now most recent
	c.put("c", "v1", []byte("rc")) // evicts b
	if _, ok := c.get("b", "v1"); ok {
		t.Fatal("LRU victim still cached")
	}
	if _, ok := c.get("a", "v1"); !ok {
		t.Fatal("recently used entry evicted")
	}
	hits, misses := c.stats()
	if hits != 3 || misses != 2 {
		t.Fatalf("stats = %d hits %d misses, want 3/2", hits, misses)
	}

	var disabled *responseCache
	disabled.put("x", "v1", []byte("r"))
	if _, ok := disabled.get("x", "v1"); ok {
		t.Fatal("disabled cache served an entry")
	}
}
