package server

import (
	"errors"
	"syscall"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/store"
)

// Durable-store glue: converting between the in-memory cache entry and
// its on-disk snapshot, the checkpoint write path, and startup recovery.
// Everything here is best-effort by design — the store makes the server
// cheaper to restart, never less available: a write failure costs
// durability of one snapshot, a read failure or corrupt file costs one
// cold solve, and neither ever surfaces to a client.

// persistEntry snapshots a completed entry to the store. On the optimal
// tier the mid-solve checkpoint (now superseded) and the recovery
// warm-start are dropped too. No-op without a store; write failures are
// swallowed — the entry still serves from memory.
//
// Full-disk handling: an ENOSPC failure latches storeDegraded, which
// sheds checkpoint writes (writeCheckpoint) while entry persists keep
// going as cheap recovery probes — one snapshot per completed solve.
// The first persist that lands clears the latch, so durability resumes
// by itself when space returns. Every write failed or skipped while
// handling the condition is counted in store_write_shed.
func (s *Server) persistEntry(key string, spec *serial.SolveSpec, e *entry) {
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
		State: e.state.Snapshot(),
	}
	if err := s.store.WriteEntry(se); err != nil {
		if isDiskFull(err) {
			s.storeDegraded.Store(true)
			s.stats.storeShed()
		}
		return
	}
	s.storeDegraded.Store(false)
	s.stats.storeWrote()
	if e.tier == serial.QualityOptimal {
		s.store.DeleteCheckpoint(key)
		s.resume.Delete(key)
	}
}

// writeCheckpoint durably snapshots a mid-solve column pool; called from
// the solver's OnState hook every CheckpointRounds rounds. While the
// store is ENOSPC-degraded, checkpoints are shed without touching the
// disk: they are pure recovery optimisation, and hammering a full disk
// with doomed multi-megabyte column pools only delays its recovery.
func (s *Server) writeCheckpoint(spec *serial.SolveSpec, rounds int, st *core.CGState) {
	if s.storeDegraded.Load() {
		s.stats.storeShed()
		return
	}
	snap := st.Snapshot()
	if snap == nil {
		return
	}
	ck := &serial.StoredCheckpoint{Spec: *spec, Rounds: rounds, State: *snap}
	if err := s.store.WriteCheckpoint(ck); err != nil {
		if isDiskFull(err) {
			s.storeDegraded.Store(true)
			s.stats.storeShed()
		}
		return
	}
	s.stats.checkpointWrote()
}

// isDiskFull reports whether a store write failed for lack of space.
func isDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
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
	if err != nil {
		s.stats.storeLoadFailed(false)
		return nil
	}
	if pr.Part.K() != se.K {
		// The snapshot was written against a different discretisation
		// (version skew); its matrix means nothing for this problem.
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
	// A failed state restore only loses the warm start, not the entry.
	// Disk bytes are untrusted even after the checksum, so the restore
	// re-runs the coverage check decode does not.
	if st, err := core.RestoreCGState(se.State); err == nil {
		e.state = st
	}
	return e
}

// recoverFromStore scans the store at startup: corrupt files are
// quarantined (counted, never fatal), checkpoints of solves the previous
// process never finished are turned into warm-starts and re-enqueued in
// the background, and completed entries stay on disk for lazy loading on
// first request. Called from New before the server accepts traffic.
func (s *Server) recoverFromStore() {
	rep, err := s.store.Scan()
	if err != nil {
		// Unreadable directory: run as a purely in-memory server.
		return
	}
	s.stats.scanQuarantined(rep.Quarantined)
	optimal := make(map[string]bool, len(rep.Entries))
	for _, se := range rep.Entries {
		if se.Tier == serial.QualityOptimal {
			optimal[se.Digest] = true
		}
	}
	for _, ck := range rep.Checkpoints {
		spec := ck.Spec
		digest := spec.Digest()
		if optimal[digest] {
			// The solve finished (optimal entry on disk) but the process
			// died before the checkpoint was cleaned up. Stale; drop it.
			s.store.DeleteCheckpoint(digest)
			continue
		}
		st, err := core.RestoreCGState(&ck.State)
		if err != nil {
			s.stats.storeLoadFailed(false)
			s.store.DeleteCheckpoint(digest)
			continue
		}
		s.resume.Store(digest, st)
		s.stats.recovered()
		// Re-enqueue the interrupted solve: scheduleUpgrade runs it on
		// the root context, warm from the resume map, and persists +
		// promotes the result when it reaches the optimal tier.
		s.scheduleUpgrade(digest, &spec)
	}
}
