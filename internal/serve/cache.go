package serve

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/plan"
)

// The prediction cache memoizes per-operator predictions across
// requests. Production plan streams repeat operator shapes heavily
// (the same scans, the same join templates at the same cardinalities),
// and a prediction is a pure function of (model versions, operator
// kind, feature vector) — the model-selection step included — so a
// cached value is exactly the value a fresh prediction would produce.
// Keying by model version makes hot-swaps self-invalidating: a new
// version simply stops matching the old entries, which age out of the
// LRU.
//
// An entry stores a full plan.Resources value and is keyed by a
// *version vector* — one model version slot per resource kind,
// populated for exactly the resources the request asked for. A
// multi-resource request therefore costs one probe and one entry for
// all its resources, and requests asking for the same resource set at
// the same model versions share entries regardless of the order they
// listed the resources in.
//
// Storage holds no pointers: each shard keeps its entries in one flat
// array linked into LRU order by int32 indexes, and finds them through
// an open-addressed int32 index. The garbage collector never scans
// either array, and a full cache allocates nothing per insert: a new
// key overwrites the least recently used entry in place.

// versionVector is the cache's model-identity: the registry version of
// the model serving each requested resource kind, zero for resources
// the request did not ask for (registry versions start at 1).
type versionVector [plan.NumResources]uint64

// cacheKey identifies one memoized prediction. Keys match only bit for
// bit (equal): a NaN feature matches the same NaN bits, and -0 does not
// match +0. hash is computed once, by newCacheKey, and travels with the
// key, so the shard choice, index probes, batch dedup and eviction all
// reuse it.
type cacheKey struct {
	versions versionVector
	op       plan.OpKind
	vec      features.Vector
	hash     uint64
}

func newCacheKey(versions versionVector, op plan.OpKind, vec *features.Vector) cacheKey {
	k := cacheKey{versions: versions, op: op, vec: *vec}
	k.hash = k.sum()
	return k
}

// sum is a word-wise FNV-1a variant over the key. Mixing whole 64-bit
// words (instead of the byte-wise textbook form) cuts the hashing cost
// by ~8x on these 200+-byte keys; the final fold spreads the high bits
// into the low ones the shard index is taken from.
func (k *cacheKey) sum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range k.versions {
		h = (h ^ v) * prime64
	}
	h = (h ^ uint64(k.op)) * prime64
	for _, f := range k.vec {
		h = (h ^ math.Float64bits(f)) * prime64
	}
	return h ^ (h >> 32)
}

func (k *cacheKey) equal(o *cacheKey) bool {
	if k.hash != o.hash || k.versions != o.versions || k.op != o.op {
		return false
	}
	for i := range k.vec {
		if math.Float64bits(k.vec[i]) != math.Float64bits(o.vec[i]) {
			return false
		}
	}
	return true
}

// indexShift sizes an open-addressed table for n keys: the table has
// 1<<(64-shift) slots, the least power of two ≥ 2n, so linear probing
// stays at load ≤ 1/2 and every probe sequence reaches an empty slot.
func indexShift(n int) uint {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	return 64 - bits
}

// homeSlot is a key's first probe position in a table of the given
// shift. Fibonacci hashing takes the slot from the high bits of the
// product, so the keys of one shard, which share the hash's low bits,
// still spread over the whole table.
func homeSlot(h uint64, shift uint) int {
	return int((h * 0x9E3779B97F4A7C15) >> shift)
}

const cacheShards = 32

// cacheEntry is one element of a shard's entry array: the key (hash
// included), the value, and the shard's LRU links as entry indexes.
type cacheEntry struct {
	key        cacheKey
	val        plan.Resources
	prev, next int32 // toward the most / least recently used end; -1 past it
}

type cacheShard struct {
	mu sync.Mutex
	// entries grows to cap; from then on a new key overwrites the LRU
	// tail in place.
	entries []cacheEntry
	// index maps hash slots to entry index + 1 (0 = empty slot): linear
	// probing from homeSlot(hash, shift), backward-shift delete, length
	// 1<<(64-shift) ≥ 2×cap.
	index      []int32
	shift      uint
	head, tail int32 // most / least recently used entry; -1 when empty
	cap        int
	// Per-shard hit/miss tallies, guarded by mu (the lock is already
	// held at every lookup, so these cost no extra synchronization).
	// The global atomic counters remain the wire-visible totals.
	hits   uint64
	misses uint64
}

// find returns k's entry and index slot, or -1 and the empty slot that
// ends k's probe sequence.
func (s *cacheShard) find(k *cacheKey) (int32, int) {
	mask := len(s.index) - 1
	for i := homeSlot(k.hash, s.shift); ; i = (i + 1) & mask {
		e := s.index[i] - 1
		if e < 0 || s.entries[e].key.equal(k) {
			return e, i
		}
	}
}

// get returns k's entry, marked most recently used, or -1.
func (s *cacheShard) get(k *cacheKey) int32 {
	e, _ := s.find(k)
	if e >= 0 {
		s.moveToFront(e)
	}
	return e
}

// put memoizes v under k, evicting the least recently used entry when
// the shard is full.
func (s *cacheShard) put(k *cacheKey, v plan.Resources) {
	e, slot := s.find(k)
	if e >= 0 {
		s.entries[e].val = v
		s.moveToFront(e)
		return
	}
	if n := len(s.entries); n < s.cap {
		if n == cap(s.entries) {
			grown := make([]cacheEntry, n, min(max(2*n, 8), s.cap))
			copy(grown, s.entries)
			s.entries = grown
		}
		s.entries = s.entries[:n+1]
		e = int32(n)
	} else {
		e = s.tail
		s.unlink(e)
		s.unindex(e)
		// The backward shift may have opened a hole earlier in k's
		// probe sequence; k must go there to stay reachable.
		_, slot = s.find(k)
	}
	s.entries[e].key = *k
	s.entries[e].val = v
	s.pushFront(e)
	s.index[slot] = e + 1
}

// unindex empties entry e's index slot, shifting later members of its
// probe run back so that no remaining key's probe sequence crosses a
// hole.
func (s *cacheShard) unindex(e int32) {
	mask := len(s.index) - 1
	i := homeSlot(s.entries[e].key.hash, s.shift)
	for s.index[i] != e+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		home := homeSlot(s.entries[s.index[j]-1].key.hash, s.shift)
		// The key at j may move into the hole unless its home lies
		// cyclically in (i, j].
		if (j-home)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

func (s *cacheShard) unlink(e int32) {
	en := &s.entries[e]
	if en.prev >= 0 {
		s.entries[en.prev].next = en.next
	} else {
		s.head = en.next
	}
	if en.next >= 0 {
		s.entries[en.next].prev = en.prev
	} else {
		s.tail = en.prev
	}
}

func (s *cacheShard) pushFront(e int32) {
	en := &s.entries[e]
	en.prev, en.next = -1, s.head
	if s.head >= 0 {
		s.entries[s.head].prev = e
	} else {
		s.tail = e
	}
	s.head = e
}

func (s *cacheShard) moveToFront(e int32) {
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// Cache is a sharded LRU of operator predictions with hit/miss
// counters. Shards bound lock contention under concurrent serving; the
// per-shard LRU bounds memory.
type Cache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// NewCache builds a cache bounded to roughly capacity entries in total.
// Returns nil (a disabled cache) when capacity <= 0; a nil *Cache is
// valid to call and never hits.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	shift := indexShift(per)
	c := &Cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.shift = shift
		s.index = make([]int32, 1<<(64-shift))
		s.head, s.tail = -1, -1
	}
	return c
}

func (c *Cache) shard(k *cacheKey) *cacheShard {
	return &c.shards[k.hash%cacheShards]
}

// Get returns the memoized prediction for k, updating recency and the
// hit/miss counters.
func (c *Cache) Get(k cacheKey) (plan.Resources, bool) {
	if c == nil {
		return plan.Resources{}, false
	}
	s := c.shard(&k)
	s.mu.Lock()
	var v plan.Resources
	e := s.get(&k)
	if e >= 0 {
		v = s.entries[e].val
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if e >= 0 {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return plan.Resources{}, false
}

// Put memoizes a prediction, evicting the least recently used entry of
// the shard when it is full.
func (c *Cache) Put(k cacheKey, v plan.Resources) {
	if c == nil {
		return
	}
	s := c.shard(&k)
	s.mu.Lock()
	s.put(&k, v)
	s.mu.Unlock()
}

// shardPlan groups a key batch by shard in one pass: a counting sort
// producing, per shard s, the key indexes order[starts[s]:starts[s+1]].
// GetMulti and PutMulti share it, so each shard lock is taken at most
// once per call.
type shardPlan struct {
	order  []int32
	starts [cacheShards + 1]int32
}

func planShards(keys []cacheKey) *shardPlan {
	sp := &shardPlan{order: make([]int32, len(keys))}
	var counts [cacheShards]int32
	for i := range keys {
		counts[keys[i].hash%cacheShards]++
	}
	var sum int32
	for s := 0; s < cacheShards; s++ {
		sp.starts[s] = sum
		sum += counts[s]
	}
	sp.starts[cacheShards] = sum
	next := sp.starts
	for i := range keys {
		s := keys[i].hash % cacheShards
		sp.order[next[s]] = int32(i)
		next[s]++
	}
	return sp
}

// GetMulti looks up a whole batch of keys, writing memoized values into
// vals and lookup outcomes into hit (all three slices parallel), and
// returns the hit count plus the shard grouping for a follow-up
// PutMulti (nil when the cache is disabled). Keys are grouped by shard
// so each shard lock is taken at most once per batch instead of once
// per key; the counters are bumped once with the batch totals.
func (c *Cache) GetMulti(keys []cacheKey, vals []plan.Resources, hit []bool) (int, *shardPlan) {
	if c == nil {
		for i := range hit {
			hit[i] = false
		}
		return 0, nil
	}
	sp := planShards(keys)
	hits := 0
	for si := 0; si < cacheShards; si++ {
		group := sp.order[sp.starts[si]:sp.starts[si+1]]
		if len(group) == 0 {
			continue
		}
		s := &c.shards[si]
		shardHits := 0
		s.mu.Lock()
		for _, i := range group {
			if e := s.get(&keys[i]); e >= 0 {
				vals[i] = s.entries[e].val
				hit[i] = true
				shardHits++
			} else {
				hit[i] = false
			}
		}
		s.hits += uint64(shardHits)
		s.misses += uint64(len(group) - shardHits)
		s.mu.Unlock()
		hits += shardHits
	}
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(len(keys) - hits))
	return hits, sp
}

// PutMulti memoizes the batch entries whose skip flag is false (the
// misses of a preceding GetMulti), reusing that GetMulti's shard
// grouping.
func (c *Cache) PutMulti(keys []cacheKey, vals []plan.Resources, skip []bool, sp *shardPlan) {
	if c == nil {
		return
	}
	if sp == nil {
		sp = planShards(keys)
	}
	for si := 0; si < cacheShards; si++ {
		group := sp.order[sp.starts[si]:sp.starts[si+1]]
		locked := false
		s := &c.shards[si]
		for _, i := range group {
			if skip[i] {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			s.put(&keys[i], vals[i])
		}
		if locked {
			s.mu.Unlock()
		}
	}
}

// ShardCacheStats is one shard's counter snapshot — the per-shard view
// behind the resserve_cache_shard_* Prometheus series. Skewed hit
// ratios across shards expose pathological key distributions that the
// aggregate counters average away.
type ShardCacheStats struct {
	Shard   int
	Hits    uint64
	Misses  uint64
	Entries int
}

// ShardStats snapshots every shard's counters. Nil (disabled) caches
// return nil.
func (c *Cache) ShardStats() []ShardCacheStats {
	if c == nil {
		return nil
	}
	out := make([]ShardCacheStats, cacheShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardCacheStats{Shard: i, Hits: s.hits, Misses: s.misses, Entries: len(s.entries)}
		s.mu.Unlock()
	}
	return out
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
		st.Capacity += s.cap
	}
	return st
}
