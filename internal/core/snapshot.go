package core

import (
	"fmt"
	"math"
)

// CGStateSnapshot is the exported, serialisable form of a CGState: the
// column pool of a (possibly interrupted) column-generation run, flat
// enough for a wire encoder. Snapshot and RestoreCGState convert in both
// directions; the opaque CGState stays the only type the solver accepts,
// so every restored pool passes through RestoreCGState's validation
// before CGOptions.Resume can see it.
type CGStateSnapshot struct {
	// K is the interval count of the problem the pool was generated on.
	K int
	// Columns are the pooled extreme points, one per admitted column.
	Columns []CGColumnSnapshot
}

// CGColumnSnapshot is one extreme point ẑ of polyhedron Λ_l with its
// objective contribution.
type CGColumnSnapshot struct {
	// L is the polyhedron (obfuscated-interval) index, in [0, K).
	L int
	// Z holds the K entries of the extreme point, each in [0, 1].
	Z []float64
	// Cost is Σ_i c_{i,l} Z_i under the problem's cost matrix.
	Cost float64
}

// Snapshot exports the state's column pool. The returned snapshot shares
// no mutable storage obligations with the solver — CGState columns are
// immutable once created — but callers must treat the nested slices as
// read-only all the same.
func (st *CGState) Snapshot() *CGStateSnapshot {
	s := &CGStateSnapshot{K: st.k, Columns: make([]CGColumnSnapshot, len(st.columns))}
	for i, c := range st.columns {
		s.Columns[i] = CGColumnSnapshot{L: c.l, Z: c.z, Cost: c.cost}
	}
	return s
}

// Validate checks the snapshot's structure: K ≥ 1, at least one column,
// every column of length K with L in range, every value finite with Z
// entries in [0, 1] and non-negative costs. It does not check that the
// pool covers every convexity row; RestoreCGState adds that.
func (s *CGStateSnapshot) Validate() error {
	if s.K < 1 {
		return fmt.Errorf("core: CG state has K = %d", s.K)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("core: CG state has no columns")
	}
	for i, c := range s.Columns {
		if c.L < 0 || c.L >= s.K {
			return fmt.Errorf("core: CG state column %d has L = %d outside [0, %d)", i, c.L, s.K)
		}
		if len(c.Z) != s.K {
			return fmt.Errorf("core: CG state column %d has %d entries, want %d", i, len(c.Z), s.K)
		}
		for j, v := range c.Z {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("core: CG state column %d entry %d = %v outside [0, 1]", i, j, v)
			}
		}
		if math.IsNaN(c.Cost) || math.IsInf(c.Cost, 0) || c.Cost < 0 {
			return fmt.Errorf("core: CG state column %d has cost %v", i, c.Cost)
		}
	}
	return nil
}

// RestoreCGState rebuilds an opaque CGState from a snapshot, validating
// it strictly: the snapshot must pass Validate, and the pool must cover
// every convexity row, without which the master is structurally
// infeasible. CGOptions.Resume checks only a state's K and relies on
// these checks for the rest. Untrusted (disk, wire) snapshots must come
// through here.
func RestoreCGState(s *CGStateSnapshot) (*CGState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	covered := make([]bool, s.K)
	st := &CGState{k: s.K, columns: make([]cgColumn, len(s.Columns))}
	for i, c := range s.Columns {
		covered[c.L] = true
		st.columns[i] = cgColumn{l: c.L, z: c.Z, cost: c.Cost}
	}
	for l, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("core: CG state covers no column for polyhedron %d", l)
		}
	}
	return st, nil
}
