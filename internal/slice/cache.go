package slice

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/relation"
)

// AnswerCache memoizes query answers under content-addressed keys
// (AnswerKey): a key embeds the slice signature and a data fingerprint
// of the relevant relations, so entries never need invalidation — an
// update to a relevant relation changes the fingerprint (a miss, fresh
// computation), while an update to an irrelevant relation leaves the
// key unchanged (a hit, no re-grounding). Eviction is per-entry LRU:
// when the cache is full, storing a new entry drops only the least
// recently used one, so the hot keys of a steady query mix survive
// overflow instead of being wiped wholesale. The cache is safe for
// concurrent use.
type AnswerCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    int64
	misses  int64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key string
	ans []relation.Tuple
}

// DefaultAnswerCacheSize bounds an AnswerCache built with max <= 0.
const DefaultAnswerCacheSize = 1024

// NewAnswerCache creates a cache holding up to max entries (<= 0 means
// DefaultAnswerCacheSize).
func NewAnswerCache(max int) *AnswerCache {
	if max <= 0 {
		max = DefaultAnswerCacheSize
	}
	return &AnswerCache{max: max, entries: map[string]*list.Element{}, order: list.New()}
}

// AnswerKey builds the canonical cache key for a query posed to a peer
// under a slice: the query rendering, the answer variables, the slice
// signature and the data fingerprint of the relevant relations.
func AnswerKey(query string, vars []string, sl *Slice, fingerprint string) string {
	return strings.Join([]string{query, strings.Join(vars, ","), sl.Signature, fingerprint}, "\x00")
}

// Get returns a deep copy of the cached answers for the key and marks
// the entry most recently used: a caller mutating a returned tuple in
// place cannot poison the cache entry.
func (c *AnswerCache) Get(key string) ([]relation.Tuple, bool) { return c.lookup(key, true) }

// Probe is Get for a caller that falls back to Get on a miss: a hit is
// counted and served like Get's, a miss is not counted, so the later Get
// counts the query once.
func (c *AnswerCache) Probe(key string) ([]relation.Tuple, bool) { return c.lookup(key, false) }

func (c *AnswerCache) lookup(key string, countMiss bool) ([]relation.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return cloneTuples(el.Value.(*cacheEntry).ans), true
}

// Put stores a deep copy of the answers under the key, evicting the
// least recently used entry if the cache is full; the caller keeps
// ownership of ans.
func (c *AnswerCache) Put(key string, ans []relation.Tuple) {
	cp := cloneTuples(ans)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).ans = cp
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.max {
		last := c.order.Back()
		if last == nil {
			break
		}
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, ans: cp})
}

// Promote re-keys a hot entry in place: the incremental maintenance
// path (peernet) patches a cached answer after a relevant-relation
// write, moving it from the pre-write fingerprint's key to the
// post-write one without growing the cache or losing the entry's LRU
// position. When oldKey is absent (evicted, or the first write of a
// series), it degrades to a plain Put. A pre-existing entry under
// newKey is replaced.
func (c *AnswerCache) Promote(oldKey, newKey string, ans []relation.Tuple) {
	cp := cloneTuples(ans)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[oldKey]
	if !ok {
		if other, dup := c.entries[newKey]; dup {
			other.Value.(*cacheEntry).ans = cp
			c.order.MoveToFront(other)
			return
		}
		for len(c.entries) >= c.max {
			last := c.order.Back()
			if last == nil {
				break
			}
			c.order.Remove(last)
			delete(c.entries, last.Value.(*cacheEntry).key)
		}
		c.entries[newKey] = c.order.PushFront(&cacheEntry{key: newKey, ans: cp})
		return
	}
	if other, dup := c.entries[newKey]; dup && other != el {
		c.order.Remove(other)
		delete(c.entries, newKey)
	}
	delete(c.entries, oldKey)
	ent := el.Value.(*cacheEntry)
	ent.key = newKey
	ent.ans = cp
	c.entries[newKey] = el
	c.order.MoveToFront(el)
}

// Len returns the number of cached entries.
func (c *AnswerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func cloneTuples(ans []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(ans))
	for i, t := range ans {
		out[i] = t.Clone()
	}
	return out
}

// Stats returns the hit/miss counters.
func (c *AnswerCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
