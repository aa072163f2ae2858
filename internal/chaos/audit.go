package chaos

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/store"
)

// auditTol bounds the recomputed (ε, r)-Geo-I violation of a replayed
// mechanism. Commits are repaired to 1e-10 before they reach the store
// and the wire encoding round-trips float64 exactly, so anything past
// this margin means a fault phase corrupted a mechanism in place.
const auditTol = 1e-8

// auditStore is the end-of-run replay: with every process dead, a
// fresh Store over the shared directory must scan clean (nothing left
// to quarantine — torn temp files do not count, a real crash leaves
// those too), every committed mechanism must still satisfy its own
// spec's Geo-I constraints, and every pool checkpoint must restore
// under its own geometry key. Returned violations feed the report's
// global violation list.
func auditStore(dir string) (AuditResult, []string) {
	var violations []string
	fail := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	st, err := store.Open(dir)
	if err != nil {
		fail("audit: reopen store: %v", err)
		return AuditResult{}, violations
	}
	rep, err := st.Scan()
	if err != nil {
		fail("audit: replay scan: %v", err)
		return AuditResult{}, violations
	}
	a := AuditResult{Entries: len(rep.Entries), Quarantined: rep.Quarantined}
	if rep.Quarantined > 0 {
		fail("audit: replay scan quarantined %d files", rep.Quarantined)
	}
	for _, digest := range rep.Entries {
		e, err := st.LoadEntry(digest)
		if err != nil {
			fail("audit: entry %s unreadable on replay: %v", digest, err)
			continue
		}
		v, err := entryViolation(e)
		if err != nil {
			fail("audit: entry %s: %v", digest, err)
			continue
		}
		if v > a.MaxGeoIViolation {
			a.MaxGeoIViolation = v
		}
		if v > auditTol {
			fail("audit: entry %s (%s tier) violates Geo-I by %g", digest, e.Tier, v)
		}
	}
	pools, _ := filepath.Glob(filepath.Join(dir, "*"+store.CheckpointExt))
	a.Checkpoints = len(pools)
	for _, path := range pools {
		if err := checkpointValid(st, strings.TrimSuffix(filepath.Base(path), store.CheckpointExt)); err != nil {
			fail("audit: pool checkpoint %s: %v", filepath.Base(path), err)
		}
	}
	a.ReplayClean = len(violations) == 0
	return a, violations
}

// checkpointValid loads one geometry's pool checkpoint, which checks
// its spec's key against the file name, and restores it for a problem
// rebuilt from that spec.
func checkpointValid(st *store.Store, geometry string) error {
	ck, err := st.LoadCheckpoint(geometry)
	if err != nil {
		return err
	}
	if _, err := core.RestoreCGState(&ck.State); err != nil {
		return err
	}
	pr, err := ck.Spec.Problem()
	if err == nil && ck.State.K != pr.Part.K() {
		err = fmt.Errorf("pool has K = %d, its spec's problem %d", ck.State.K, pr.Part.K())
	}
	return err
}

// entryViolation rebuilds the D-VLP instance from the entry's own spec
// and measures the stored mechanism's largest Geo-I constraint
// violation against it — the same pipeline the server runs before
// serving, re-derived from scratch so a corrupted spec or matrix
// cannot vouch for itself.
func entryViolation(e *serial.StoredEntry) (float64, error) {
	pr, err := e.Spec.Problem()
	if err != nil {
		return 0, err
	}
	m := &core.Mechanism{Part: pr.Part, Z: e.Z}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return pr.GeoIViolation(m), nil
}
