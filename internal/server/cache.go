package server

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/core"
	"repro/internal/serial"
)

// mechCache is a bounded LRU of solved mechanisms keyed by the solve
// spec's content digest. A solved mechanism is immutable apart from its
// internally-locked sampler state, so entries are shared freely between
// requests; eviction merely drops the cache's reference.
//
// A second index maps request forms to keys (see formID): each cached
// key keeps the first form recorded for it, and evicting the key drops
// its form, so the index never outgrows the LRU.
//
// A third maps geometry keys (serial.SolveSpec.GeometryKey) to the
// core.Geometry of a cached entry, so a spec on an already-derived road
// network at the same δ, ε and r builds only its prior-dependent costs.
// It counts the cached entries using each geometry and drops one when no
// cached entry uses it any more, so it holds nothing the LRU does not.
// The same record keeps the geometry's donor column pool (see
// Server.solve), which therefore lives and dies with it.
type mechCache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used; values are *entry
	items  map[string]*list.Element
	forms  map[formID]string
	formOf map[string]formID
	geoms  map[geomKey]*geomUse
}

// geomKey is a spec's serial.SolveSpec.GeometryKey.
type geomKey [sha256.Size]byte

// geomUse is one indexed geometry and how many cached entries use it.
type geomUse struct {
	geo  *core.Geometry
	refs int
	// donor is the final state of the first cached optimal-tier solve
	// on this geometry that started from seeds or the stored pool (nil
	// until one is cached). Cold solves of other specs on the geometry
	// resume column generation from it. Immutable.
	donor *core.CGState
}

// formID identifies an /obfuscate request body with its location batch
// cut out: SHA-256 over the cut offset, the bytes before it and the
// bytes after the batch. Equal forms carry byte-identical specs, so they
// decode to the same spec and key whatever batch they carry.
type formID [sha256.Size]byte

func newMechCache(max int) *mechCache {
	if max < 1 {
		max = 1
	}
	return &mechCache{
		max:    max,
		ll:     list.New(),
		items:  make(map[string]*list.Element, max),
		forms:  make(map[formID]string, max),
		formOf: make(map[string]formID, max),
		geoms:  make(map[geomKey]*geomUse),
	}
}

// geometry returns the indexed geometry for k and its donor state, or
// nils.
func (c *mechCache) geometry(k geomKey) (*core.Geometry, *core.CGState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if u, ok := c.geoms[k]; ok {
		return u.geo, u.donor
	}
	return nil, nil
}

// retain counts e as a user of its geometry, indexing the geometry if
// its key has none, and takes e's pool: it becomes the geometry's donor
// if e is optimal and the geometry has no donor yet, and is dropped
// otherwise, so no entry keeps a pool. An entry whose key already maps
// to another geometry (two misses derived it concurrently) is not
// counted: it keeps its own geometry alive and the index keeps the
// first. Its pool may still donate, since equal keys give equal
// polyhedra Λ_l. Callers hold c.mu.
func (c *mechCache) retain(e *entry) {
	if e.geom == (geomKey{}) {
		return
	}
	u, ok := c.geoms[e.geom]
	if !ok {
		u = &geomUse{geo: e.prob.Geometry}
		c.geoms[e.geom] = u
	}
	if u.geo == e.prob.Geometry {
		u.refs++
	}
	if u.donor == nil && e.tier == serial.QualityOptimal {
		u.donor = e.pool
	}
	e.pool = nil
}

// release undoes retain for an entry leaving the cache. Callers hold
// c.mu.
func (c *mechCache) release(e *entry) {
	if u, ok := c.geoms[e.geom]; ok && u.geo == e.prob.Geometry {
		if u.refs--; u.refs == 0 {
			delete(c.geoms, e.geom)
		}
	}
}

// get returns the entry for key, promoting it to most recently used.
func (c *mechCache) get(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// getForm returns the entry whose key form f was recorded for, promoting
// it to most recently used.
func (c *mechCache) getForm(f formID) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.forms[f]
	if !ok {
		return nil, false
	}
	el := c.items[key]
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// setForm records f as the form of key, if the cache holds key and key
// has no form yet.
func (c *mechCache) setForm(key string, f formID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; !ok {
		return
	}
	if _, ok := c.formOf[key]; ok {
		return
	}
	c.forms[f] = key
	c.formOf[key] = f
}

// add inserts (or refreshes) key and returns how many entries were
// evicted to respect the bound.
func (c *mechCache) add(key string, e *entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retain(e)
	if el, ok := c.items[key]; ok {
		c.release(el.Value.(*entry))
		el.Value = e
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(e)
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		old := back.Value.(*entry)
		c.release(old)
		key := old.key
		delete(c.items, key)
		if f, ok := c.formOf[key]; ok {
			delete(c.forms, f)
			delete(c.formOf, key)
		}
		evicted++
	}
	return evicted
}

// len returns the number of cached mechanisms.
func (c *mechCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// entries snapshots the cached mechanisms in most-recently-used order.
func (c *mechCache) entries() []*entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*entry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry))
	}
	return out
}
