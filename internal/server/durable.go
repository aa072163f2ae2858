package server

import (
	"errors"
	"syscall"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/store"
)

// Durable-store glue: cache entries and each road network's pool
// checkpoint, its durable warm start. Everything here is best-effort —
// the store makes the server cheaper to restart, never less available:
// a write failure costs durability of one snapshot, a bad read one cold
// solve, and neither ever surfaces to a client. There is no recovery
// pass: after a crash, the first request for an interrupted spec (or
// any on its network) is an ordinary miss resuming from storedPool.

// admit caches a solved entry and persists it. The entry's final pool,
// on any tier, is checkpointed too, after the entry persist (the ENOSPC
// recovery probe), unless it is the stored record its owner last read
// or wrote (entry.stored). It returns how many entries the cache
// evicted.
func (s *Server) admit(spec *serial.SolveSpec, e *entry) int {
	pool, rounds, stored := e.pool, e.rounds, e.stored
	evicted := s.cache.add(e.key, e)
	s.persistEntry(spec, e)
	if pool != nil && s.store != nil && !stored {
		s.writeCheckpoint(spec, rounds, pool)
	}
	return evicted
}

// persistEntry snapshots a completed entry to the store. No-op without
// a store; write failures are swallowed — the entry still serves from
// memory. Entry persists keep going while the store is ENOSPC-degraded,
// as cheap recovery probes: the first that lands clears the latch.
func (s *Server) persistEntry(spec *serial.SolveSpec, e *entry) {
	if s.store == nil {
		return
	}
	se := &serial.StoredEntry{
		Spec:  *spec,
		Tier:  e.tier,
		ETDD:  e.etdd,
		Bound: e.bound,
		K:     e.mech.K(),
		Z:     e.mech.Z,
	}
	if s.landed(s.store.WriteEntry(se)) {
		s.storeDegraded.Store(false)
		s.stats.storeWrote()
	}
}

// writeCheckpoint durably records st as the pool of spec's geometry:
// every core.CheckpointRounds rounds of an owner's solve that may donate,
// and from admit with that solve's final pool. An ENOSPC-degraded store
// sheds it without I/O. It reports whether the write landed.
func (s *Server) writeCheckpoint(spec *serial.SolveSpec, rounds int, st *core.CGState) bool {
	if s.storeDegraded.Load() {
		s.stats.storeShed()
		return false
	}
	ck := &serial.StoredCheckpoint{Spec: *spec, Rounds: rounds, State: *st.Snapshot()}
	if !s.landed(s.store.WriteCheckpoint(ck)) {
		return false
	}
	s.stats.checkpointWrote()
	return true
}

// landed reports whether a store write succeeded. A full disk (ENOSPC)
// latches storeDegraded and counts the write in store_write_shed.
func (s *Server) landed(err error) bool {
	if errors.Is(err, syscall.ENOSPC) {
		s.storeDegraded.Store(true)
		s.stats.storeShed()
	}
	return err == nil
}

// storedPool returns the pool checkpoint of spec's geometry, restored
// and checked against pr, or nil: no store, no checkpoint, or one that
// fails validation (counted; quarantined when corrupt).
func (s *Server) storedPool(spec *serial.SolveSpec, pr *core.Problem) *core.CGState {
	if s.store == nil {
		return nil
	}
	ck, err := s.store.LoadCheckpoint(store.GeometryName(spec))
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			s.stats.storeLoadFailed(errors.Is(err, store.ErrCorrupt))
		}
		return nil
	}
	st, err := core.RestoreCGState(&ck.State)
	if err != nil || ck.State.K != pr.Part.K() {
		s.stats.storeLoadFailed(false)
		return nil
	}
	return st
}

// entryFromStore rebuilds a servable cache entry from the durable
// snapshot for key, or returns nil (cold solve required). The snapshot
// is never trusted into the serving path as-is: the mechanism must match
// the spec's own discretisation, validate as row-stochastic, and pass
// the same EnforceGeoI repair gate every freshly solved mechanism
// passes — a snapshot that fails any of it costs a re-solve, never a
// privacy-violating mechanism. The problem it checks against reuses a
// cached entry's geometry when one matches (problemFor), so a
// read-through on an already-derived network builds only the cost
// matrix; the check still runs against the full constraint set. A
// decode-valid snapshot whose semantics are off is left in place: the
// re-solve's persist overwrites it.
//
// A nil spec means "whatever the snapshot was solved for": the fleet
// refresh loop loads by digest alone, and the snapshot's embedded spec
// (already verified to hash to key by LoadEntry) is authoritative.
func (s *Server) entryFromStore(key string, spec *serial.SolveSpec) *entry {
	if s.store == nil {
		return nil
	}
	se, err := s.store.LoadEntry(key)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil
		}
		s.stats.storeLoadFailed(errors.Is(err, store.ErrCorrupt))
		return nil
	}
	if spec == nil {
		spec = &se.Spec
	}
	pr, gk, _, err := s.problemFor(spec)
	if err != nil || pr.Part.K() != se.K {
		// A K mismatch means the snapshot was written against another
		// discretisation (version skew): its matrix means nothing here.
		s.stats.storeLoadFailed(false)
		return nil
	}
	mech := &core.Mechanism{Part: pr.Part, Z: se.Z}
	if err := mech.Validate(); err != nil {
		s.stats.storeLoadFailed(false)
		return nil
	}
	served, etdd, err := pr.EnforceGeoI(mech, core.GeoITol)
	if err != nil {
		s.stats.storeLoadFailed(false)
		return nil
	}
	e := s.newEntry(pr, served, etdd, se.Bound, se.Tier)
	e.key = key
	e.geom = gk
	return e
}

// scanStore quarantines (and counts) corrupt files, starting no solve;
// entries stay on disk until first request. Run by New and promote.
func (s *Server) scanStore() {
	if rep, err := s.store.Scan(); err == nil {
		s.stats.scanQuarantined(rep.Quarantined)
	}
}
