// Package resultcache provides a sharded, size-bounded LRU cache for
// content-addressed analysis results. Server-mode traffic over AI-generated
// corpora re-submits the same sources constantly (duplicate snippets,
// re-scans across revisions), so the detector's scan results are memoized
// by a key derived from (catalog fingerprint, options fingerprint, source
// text): identical requests become a hash lookup instead of a full scan.
// The HTTP front end keeps a second instance for encoded responses.
//
// Three properties matter for the serving path:
//
//   - sharding: the key hash picks one of 16 independently locked shards,
//     so concurrent sessions do not serialize on one mutex;
//   - size bounding: each shard evicts least-recently-used entries once its
//     byte budget (key + caller-costed value) is exceeded;
//   - singleflight: concurrent misses on the same key run the compute
//     function once and share the result, so a thundering herd of identical
//     requests costs one scan.
//
// The cache stores values by full key string — a hit compares keys, never
// just hashes, so hash collisions cannot surface stale results.
package resultcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/dessertlab/patchitpy/internal/obs"
)

// numShards is the shard count; a power of two so the hash maps cheaply.
const numShards = 16

// Key joins key components with NUL separators. Components must not
// contain NUL bytes themselves except the final one (typically the raw
// source text), which may.
func Key(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 1
	}
	b := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, p...)
	}
	return string(b)
}

// fnv1a is the 64-bit FNV-1a hash, used only for shard selection.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that had to compute (or found nothing).
	Misses uint64
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached key/value pair, linked into its shard's LRU list.
type entry[V any] struct {
	key  string
	val  V
	cost int64
}

// call is one in-flight singleflight computation.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

type shard[V any] struct {
	mu       sync.Mutex
	items    map[string]*list.Element // value: *entry[V]
	order    *list.List               // front = most recently used
	bytes    int64
	maxBytes int64
	inflight map[string]*call[V]
}

// Cache is a sharded LRU keyed by string, safe for concurrent use.
// A nil *Cache is valid and acts as an always-miss, never-store cache, so
// callers can disable caching by dropping the pointer.
type Cache[V any] struct {
	shards [numShards]shard[V]
	cost   func(key string, v V) int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New returns a cache bounded to roughly maxBytes across all shards. cost
// reports the retained size of a value; the key's length is added
// automatically. A nil cost counts only key bytes. maxBytes <= 0 returns a
// nil cache (caching disabled).
func New[V any](maxBytes int64, cost func(key string, v V) int64) *Cache[V] {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache[V]{cost: cost}
	perShard := maxBytes / numShards
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].maxBytes = perShard
		c.shards[i].inflight = make(map[string]*call[V])
	}
	return c
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[fnv1a(key)&(numShards-1)]
}

// Get returns the cached value for key, if present, and marks it most
// recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// Add stores key → v, evicting least-recently-used entries as needed. An
// entry larger than a whole shard's budget is not stored at all.
func (c *Cache[V]) Add(key string, v V) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	cost := c.costOf(key, v)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.addLocked(s, key, v, cost)
}

// costOf is the retained size charged for key → v.
func (c *Cache[V]) costOf(key string, v V) int64 {
	cost := int64(len(key))
	if c.cost != nil {
		cost += c.cost(key, v)
	}
	return cost
}

// addLocked is Add's body; the caller holds s.mu.
func (c *Cache[V]) addLocked(s *shard[V], key string, v V, cost int64) {
	if cost > s.maxBytes {
		return
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[V])
		s.bytes += cost - e.cost
		e.val, e.cost = v, cost
		s.order.MoveToFront(el)
	} else {
		s.items[key] = s.order.PushFront(&entry[V]{key: key, val: v, cost: cost})
		s.bytes += cost
	}
	for s.bytes > s.maxBytes {
		back := s.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[V])
		s.order.Remove(back)
		delete(s.items, e.key)
		s.bytes -= e.cost
		c.evictions.Add(1)
	}
}

// GetOrCompute returns the cached value for key or, on a miss, runs fn
// once — concurrent callers with the same key block on the single
// computation and share its result — then stores and returns it. hit
// reports whether the value came from the cache (a singleflight wait
// counts as a miss for the caller that waited: the work was not cached
// when it asked).
func (c *Cache[V]) GetOrCompute(key string, fn func() V) (v V, hit bool) {
	v, hit, _ = c.GetOrComputeErr(key, func() (V, error) { return fn(), nil })
	return v, hit
}

// GetOrComputeErr is GetOrCompute for fallible computations: on a miss,
// fn runs once and every concurrent caller with the same key shares its
// (value, error) pair, but only successful results are stored — a
// failure is reported to the flight that computed it and then forgotten,
// so the next request retries instead of being served a cached error.
func (c *Cache[V]) GetOrComputeErr(key string, fn func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err = fn()
		return v, false, err
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.misses.Add(1)
		cl.wg.Wait()
		return cl.val, false, cl.err
	}
	cl := &call[V]{}
	cl.wg.Add(1)
	s.inflight[key] = cl
	s.mu.Unlock()
	c.misses.Add(1)

	cl.val, cl.err = fn()

	// Store the value and retire the flight under one lock, so a caller
	// arriving in between cannot find neither and compute again.
	var cost int64
	if cl.err == nil {
		cost = c.costOf(key, cl.val)
	}
	s.mu.Lock()
	if cl.err == nil {
		c.addLocked(s, key, cl.val, cost)
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// Len returns the number of cached entries across all shards.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the current total retained cost across all shards.
func (c *Cache[V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the hit/miss/eviction counters. A nil cache
// reports zeros.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Snapshot is the cache's full public state: the counters plus the
// occupancy figures every frontend (the serve "stats" verb, the obs
// metric exports, the CLI summaries) reports from the same source.
type Snapshot struct {
	// Hits, Misses and Evictions mirror Stats.
	Hits, Misses, Evictions uint64
	// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
	HitRate float64
	// Entries is the number of cached values across all shards.
	Entries int
	// Bytes is the retained cost across all shards.
	Bytes int64
}

// Snapshot returns the cache's counters and occupancy in one call. A nil
// cache reports zeros.
func (c *Cache[V]) Snapshot() Snapshot {
	s := c.Stats()
	return Snapshot{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		HitRate:   s.HitRate(),
		Entries:   c.Len(),
		Bytes:     c.Bytes(),
	}
}

// RegisterObs registers one cache's counters and occupancy with reg as
// pull-style metrics labeled cache=name. The cache is fetched through
// get at exposition time, so owners that replace their cache on
// reconfiguration (SetCacheBytes) stay correctly wired; get may return
// nil (reports zeros). Re-registering the same name replaces the
// previous wiring.
func RegisterObs[V any](reg *obs.Registry, name string, get func() *Cache[V]) {
	reg.CounterFuncL(obs.MetricCacheHits, "cache", name, func() float64 { return float64(get().Stats().Hits) })
	reg.CounterFuncL(obs.MetricCacheMisses, "cache", name, func() float64 { return float64(get().Stats().Misses) })
	reg.CounterFuncL(obs.MetricCacheEvictions, "cache", name, func() float64 { return float64(get().Stats().Evictions) })
	reg.GaugeFuncL(obs.MetricCacheHitRate, "cache", name, func() float64 { return get().Stats().HitRate() })
	reg.GaugeFuncL(obs.MetricCacheEntries, "cache", name, func() float64 { return float64(get().Len()) })
	reg.GaugeFuncL(obs.MetricCacheBytes, "cache", name, func() float64 { return float64(get().Bytes()) })
}
