package chaos

import (
	"fmt"

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
// those too) and every committed mechanism must still satisfy its own
// spec's Geo-I constraints. Returned violations feed the report's
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
	a := AuditResult{
		Entries:     len(rep.Entries),
		Checkpoints: len(rep.Checkpoints),
		Quarantined: rep.Quarantined,
	}
	if rep.Quarantined > 0 {
		fail("audit: replay scan quarantined %d files", rep.Quarantined)
	}
	for _, se := range rep.Entries {
		e, err := st.LoadEntry(se.Digest)
		if err != nil {
			fail("audit: entry %s unreadable on replay: %v", se.Digest, err)
			continue
		}
		v, err := entryViolation(e)
		if err != nil {
			fail("audit: entry %s: %v", se.Digest, err)
			continue
		}
		if v > a.MaxGeoIViolation {
			a.MaxGeoIViolation = v
		}
		if v > auditTol {
			fail("audit: entry %s (%s tier) violates Geo-I by %g", se.Digest, e.Tier, v)
		}
	}
	a.ReplayClean = len(violations) == 0
	return a, violations
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
