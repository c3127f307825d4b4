package serve

import (
	"container/list"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/plan"
)

// refKey is a cacheKey's bit pattern, so a Go map compares it bit for
// bit the way the cache does (a float map key would treat NaN as never
// equal and -0 as +0).
type refKey struct {
	versions versionVector
	op       plan.OpKind
	bits     [features.NumFeatures]uint64
}

func refKeyOf(k *cacheKey) refKey {
	r := refKey{versions: k.versions, op: k.op}
	for i, f := range k.vec {
		r.bits[i] = math.Float64bits(f)
	}
	return r
}

type refEntry struct {
	key refKey
	val plan.Resources
}

// refCache is the reference the flat cache is checked against: the
// textbook container/list LRU per shard, routed by the same hash.
type refCache struct {
	per    int
	shards [cacheShards]struct {
		m   map[refKey]*list.Element
		lru list.List // front = most recently used
	}
}

func newRefCache(capacity int) *refCache {
	r := &refCache{per: max(capacity/cacheShards, 1)}
	for i := range r.shards {
		r.shards[i].m = map[refKey]*list.Element{}
	}
	return r
}

func (r *refCache) get(k *cacheKey) (plan.Resources, bool) {
	s := &r.shards[k.hash%cacheShards]
	el, ok := s.m[refKeyOf(k)]
	if !ok {
		return plan.Resources{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*refEntry).val, true
}

func (r *refCache) put(k *cacheKey, v plan.Resources) {
	s := &r.shards[k.hash%cacheShards]
	rk := refKeyOf(k)
	if el, ok := s.m[rk]; ok {
		el.Value.(*refEntry).val = v
		s.lru.MoveToFront(el)
		return
	}
	s.m[rk] = s.lru.PushFront(&refEntry{key: rk, val: v})
	if s.lru.Len() > r.per {
		old := s.lru.Back()
		s.lru.Remove(old)
		delete(s.m, old.Value.(*refEntry).key)
	}
}

// checkShard verifies a shard's internal invariants: the LRU links form
// one consistent chain over every entry, and the index holds exactly
// one slot per entry, reachable from the entry's home slot.
func checkShard(t *testing.T, si int, s *cacheShard) {
	t.Helper()
	if len(s.entries) > s.cap {
		t.Fatalf("shard %d: %d entries over capacity %d", si, len(s.entries), s.cap)
	}
	n, prev := 0, int32(-1)
	for e := s.head; e >= 0; e = s.entries[e].next {
		if s.entries[e].prev != prev || n > len(s.entries) {
			t.Fatalf("shard %d: broken LRU chain at entry %d", si, e)
		}
		prev = e
		n++
	}
	if n != len(s.entries) || s.tail != prev {
		t.Fatalf("shard %d: LRU chain covers %d of %d entries (tail %d, last %d)", si, n, len(s.entries), s.tail, prev)
	}
	used := 0
	for _, v := range s.index {
		if v != 0 {
			used++
		}
	}
	if used != len(s.entries) {
		t.Fatalf("shard %d: index holds %d slots for %d entries", si, used, len(s.entries))
	}
	for e := range s.entries {
		if got, _ := s.find(&s.entries[e].key); got != int32(e) {
			t.Fatalf("shard %d: entry %d found at %d", si, e, got)
		}
	}
}

// checkAgainstRef compares occupancy and per-shard recency order with
// the reference, after checking the cache's own invariants.
func checkAgainstRef(t *testing.T, c *Cache, r *refCache) {
	t.Helper()
	total := 0
	for si := range c.shards {
		s := &c.shards[si]
		checkShard(t, si, s)
		rs := &r.shards[si]
		if len(s.entries) != rs.lru.Len() {
			t.Fatalf("shard %d: %d entries, reference %d", si, len(s.entries), rs.lru.Len())
		}
		el := rs.lru.Front()
		for e := s.head; e >= 0; e = s.entries[e].next {
			want := el.Value.(*refEntry)
			if refKeyOf(&s.entries[e].key) != want.key || s.entries[e].val != want.val {
				t.Fatalf("shard %d: recency order differs from reference", si)
			}
			el = el.Next()
		}
		total += rs.lru.Len()
	}
	if got := c.Stats().Entries; got != total {
		t.Fatalf("Stats().Entries = %d, reference %d", got, total)
	}
}

// oddFloats are the bit patterns a float-keyed Go map mishandles.
var oddFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
}

// plainFloats fill the remaining feature positions. They use the whole
// mantissa: the shard is taken from the hash's low bits, which
// small-integer features barely move.
var plainFloats = []float64{0.1, 1.7, 2.35, 1e6 + 0.3}

// randKey draws a key from a small value alphabet, so the odd float
// patterns turn up in every position.
func randKey(rng *rand.Rand) cacheKey {
	var vec features.Vector
	for i := range vec {
		if rng.Intn(8) == 0 {
			vec[i] = oddFloats[rng.Intn(len(oddFloats))]
		} else {
			vec[i] = plainFloats[rng.Intn(len(plainFloats))]
		}
	}
	versions := versionVector{uint64(1 + rng.Intn(2))}
	return newCacheKey(versions, plan.OpKind(rng.Intn(3)), &vec)
}

// TestCacheMatchesReferenceLRU drives the flat cache and a
// container/list LRU through the same random Get/Put/GetMulti/PutMulti
// sequence: every lookup must agree on hit and value, and occupancy and
// each shard's recency order must match throughout.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{32, 64, 100, 4096} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		pool := make([]cacheKey, 3*capacity+256)
		for i := range pool {
			pool[i] = randKey(rng)
		}
		c, r := NewCache(capacity), newRefCache(capacity)
		val := func() plan.Resources { return plan.Resources{CPU: rng.Float64(), IO: float64(rng.Intn(100))} }
		for op := 0; op < 4000; op++ {
			switch rng.Intn(4) {
			case 0:
				k := pool[rng.Intn(len(pool))]
				got, ok := c.Get(k)
				want, wok := r.get(&k)
				if ok != wok || got != want {
					t.Fatalf("cap %d op %d: Get = %v,%v, reference %v,%v", capacity, op, got, ok, want, wok)
				}
			case 1:
				k, v := pool[rng.Intn(len(pool))], val()
				c.Put(k, v)
				r.put(&k, v)
			case 2, 3:
				keys := make([]cacheKey, 1+rng.Intn(64))
				for i := range keys {
					keys[i] = pool[rng.Intn(len(pool))]
				}
				vals, hit := make([]plan.Resources, len(keys)), make([]bool, len(keys))
				hits, sp := c.GetMulti(keys, vals, hit)
				n := 0
				for i := range keys {
					want, wok := r.get(&keys[i])
					if hit[i] != wok || (wok && vals[i] != want) {
						t.Fatalf("cap %d op %d: GetMulti key %d = %v,%v, reference %v,%v", capacity, op, i, vals[i], hit[i], want, wok)
					}
					if wok {
						n++
					}
				}
				if hits != n {
					t.Fatalf("cap %d op %d: GetMulti counted %d hits, reference %d", capacity, op, hits, n)
				}
				for i := range keys {
					if !hit[i] {
						vals[i] = val()
					}
				}
				// Half the time the puts reuse GetMulti's grouping, half
				// the time PutMulti groups the batch itself.
				if rng.Intn(2) == 0 {
					sp = nil
				}
				c.PutMulti(keys, vals, hit, sp)
				for i := range keys {
					if !hit[i] {
						r.put(&keys[i], vals[i])
					}
				}
			}
			if op%200 == 0 {
				checkAgainstRef(t, c, r)
			}
		}
		checkAgainstRef(t, c, r)
		if st := c.Stats(); st.Entries != st.Capacity {
			t.Fatalf("cap %d: %d of %d entries resident after the run; the sequence never filled the cache", capacity, st.Entries, st.Capacity)
		}
	}
}

// TestCacheOddFloatKeysStayBounded pins that NaN and signed-zero keys
// are ordinary keys: a repeated NaN key hits its own entry instead of
// adding one per put, -0 and +0 keep separate entries, and no sequence
// of them grows the cache or its index past capacity.
func TestCacheOddFloatKeysStayBounded(t *testing.T) {
	c := NewCache(32)
	capacity := c.Stats().Capacity
	var vec features.Vector
	for i := 0; i < 1000; i++ {
		vec[0] = oddFloats[i%len(oddFloats)]
		vec[1] = float64(i % 50)
		k := newCacheKey(versionVector{1}, plan.Filter, &vec)
		c.Put(k, plan.Resources{CPU: float64(i)})
		if got, ok := c.Get(k); !ok || got.CPU != float64(i) {
			t.Fatalf("put %d: Get right after Put = %v,%v", i, got, ok)
		}
		if st := c.Stats(); st.Entries > capacity {
			t.Fatalf("put %d: %d entries over capacity %d", i, st.Entries, capacity)
		}
	}
	for si := range c.shards {
		checkShard(t, si, &c.shards[si])
	}

	c = NewCache(4096)
	vec = features.Vector{}
	nan := newCacheKey(versionVector{1}, plan.Filter, &vec)
	nan.vec[0] = math.NaN()
	nan.hash = nan.sum()
	for i := 0; i < 1000; i++ {
		c.Put(nan, plan.Resources{CPU: 1})
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("1000 puts of one NaN key left %d entries, want 1", st.Entries)
	}
	pos := newCacheKey(versionVector{1}, plan.Filter, &vec)
	vec[0] = math.Copysign(0, -1)
	neg := newCacheKey(versionVector{1}, plan.Filter, &vec)
	c.Put(pos, plan.Resources{CPU: 2})
	c.Put(neg, plan.Resources{CPU: 3})
	if v, _ := c.Get(pos); v.CPU != 2 {
		t.Fatalf("+0 key reads %v, want 2", v.CPU)
	}
	if v, _ := c.Get(neg); v.CPU != 3 {
		t.Fatalf("-0 key reads %v, want 3", v.CPU)
	}
}

// TestCacheConcurrentMultiOps hammers GetMulti/PutMulti from several
// goroutines while others snapshot Stats and ShardStats (run under
// -race), then checks the counters add up and every shard is intact.
func TestCacheConcurrentMultiOps(t *testing.T) {
	c := NewCache(256)
	const workers, rounds, batch = 4, 200, 48
	// A shared pool about twice the capacity, so the batches both hit
	// (moving entries to the front) and evict.
	rng := rand.New(rand.NewSource(1))
	pool := make([]cacheKey, 512)
	for i := range pool {
		pool[i] = randKey(rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]cacheKey, batch)
			vals, hit := make([]plan.Resources, batch), make([]bool, batch)
			for r := 0; r < rounds; r++ {
				for i := range keys {
					keys[i] = pool[rng.Intn(len(pool))]
				}
				_, sp := c.GetMulti(keys, vals, hit)
				c.PutMulti(keys, vals, hit, sp)
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := c.Stats(); st.Entries > st.Capacity {
				t.Errorf("Stats: %d entries over capacity %d", st.Entries, st.Capacity)
				return
			}
			c.ShardStats()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != workers*rounds*batch {
		t.Fatalf("hits %d + misses %d, want %d lookups", st.Hits, st.Misses, workers*rounds*batch)
	}
	var hits, misses uint64
	entries := 0
	for _, sh := range c.ShardStats() {
		hits += sh.Hits
		misses += sh.Misses
		entries += sh.Entries
	}
	if hits != st.Hits || misses != st.Misses || entries != st.Entries {
		t.Fatalf("shard totals %d/%d/%d, cache totals %d/%d/%d", hits, misses, entries, st.Hits, st.Misses, st.Entries)
	}
	for si := range c.shards {
		checkShard(t, si, &c.shards[si])
	}
}

// BenchmarkCacheMulti measures the batch cache path in 1024-key
// batches, in the two shapes the serving workloads produce:
//
//   - miss-evict: every key is new and the cache is full, so each
//     GetMulti misses and each PutMulti evicts (an optimizer's what-if
//     batches of never-seen plans);
//   - hit: one resident batch read over and over (a replica answering
//     repeated plans).
//
// ns/key is per key per operation; allocs/op is per 1024-key
// operation; B/entry (miss-evict) is the heap the full cache holds per
// resident entry, from runtime.MemStats around building it.
func BenchmarkCacheMulti(b *testing.B) {
	const batch = 1024
	// Feature values use the whole mantissa, as measured cardinalities
	// and widths do.
	rng := rand.New(rand.NewSource(1))
	mkKey := func(i int) cacheKey {
		var vec features.Vector
		for f := range vec {
			vec[f] = rng.Float64() * 1e6
		}
		return newCacheKey(versionVector{1, 2}, plan.OpKind(i%3), &vec)
	}
	// fill builds a default-sized cache holding keys, returning it with
	// the heap it holds per resident entry.
	fill := func(keys []cacheKey) (*Cache, float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := NewCache(65536)
		vals, hit := make([]plan.Resources, batch), make([]bool, batch)
		for lo := 0; lo < len(keys); lo += batch {
			_, sp := c.GetMulti(keys[lo:lo+batch], vals, hit)
			c.PutMulti(keys[lo:lo+batch], vals, hit, sp)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return c, float64(after.HeapAlloc-before.HeapAlloc) / float64(c.Stats().Entries)
	}

	b.Run("miss-evict", func(b *testing.B) {
		// Twice the capacity, cycled in order: each key's shard takes
		// more than its capacity of other keys before the key recurs,
		// so every lookup misses and every insert evicts.
		keys := make([]cacheKey, 2*65536)
		for i := range keys {
			keys[i] = mkKey(i)
		}
		c, perEntry := fill(keys)
		if st := c.Stats(); st.Entries != st.Capacity {
			b.Fatalf("%d of %d entries resident: the cache is not full", st.Entries, st.Capacity)
		}
		vals, hit := make([]plan.Resources, batch), make([]bool, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for n, lo := 0, 0; n < b.N; n++ {
			ks := keys[lo : lo+batch]
			hits, sp := c.GetMulti(ks, vals, hit)
			if hits != 0 {
				b.Fatalf("%d hits in an all-miss batch", hits)
			}
			c.PutMulti(ks, vals, hit, sp)
			lo = (lo + batch) % len(keys)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
		b.ReportMetric(perEntry, "B/entry")
	})

	b.Run("hit", func(b *testing.B) {
		keys := make([]cacheKey, batch)
		for i := range keys {
			keys[i] = mkKey(i)
		}
		c, _ := fill(keys)
		vals, hit := make([]plan.Resources, batch), make([]bool, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if hits, _ := c.GetMulti(keys, vals, hit); hits != batch {
				b.Fatalf("%d of %d hits in an all-hit batch", hits, batch)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	})
}
