package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/store"
)

// geoITol is the Geo-I violation ceiling the audit enforces on every
// stored mechanism, the bound vlpserved advertises.
const geoITol = 1e-9

// checkObfuscate validates one /obfuscate answer: status 200, the key the
// client computed, one location back per location sent, each on a real
// road within its length, and the optimal quality tier.
func checkObfuscate(status int, body []byte, wantKey string, sent int, g *roadnet.Graph) (serial.ObfuscateResponse, error) {
	var resp serial.ObfuscateResponse
	if status != 200 {
		return resp, fmt.Errorf("status %d", status)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decode: %w", err)
	}
	if resp.Key != wantKey {
		return resp, fmt.Errorf("key %s, want %s", resp.Key, wantKey)
	}
	if len(resp.Locations) != sent {
		return resp, fmt.Errorf("%d locations back, %d sent", len(resp.Locations), sent)
	}
	for i, l := range resp.Locations {
		if l.Road < 0 || l.Road >= g.NumEdges() {
			return resp, fmt.Errorf("location %d: road %d out of range", i, l.Road)
		}
		if w := g.Edge(roadnet.EdgeID(l.Road)).Weight; !(l.FromStart >= 0 && l.FromStart <= w) {
			return resp, fmt.Errorf("location %d: from_start %v outside [0, %v]", i, l.FromStart, w)
		}
	}
	if resp.Quality != serial.QualityOptimal {
		return resp, fmt.Errorf("quality %q", resp.Quality)
	}
	return resp, nil
}

// checkSolve validates one /solve answer: status 200, the client's key,
// the tier's K, the optimal quality tier and a finite ETDD at or above
// the reported lower bound.
func checkSolve(status int, body []byte, wantKey string, k int) (serial.SolveResponse, error) {
	var resp serial.SolveResponse
	if status != 200 {
		return resp, fmt.Errorf("status %d", status)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decode: %w", err)
	}
	if resp.Key != wantKey {
		return resp, fmt.Errorf("key %s, want %s", resp.Key, wantKey)
	}
	if resp.K != k {
		return resp, fmt.Errorf("K %d, want %d", resp.K, k)
	}
	if resp.Quality != serial.QualityOptimal {
		return resp, fmt.Errorf("quality %q", resp.Quality)
	}
	if !(resp.ETDD > 0) || math.IsInf(resp.ETDD, 0) || resp.ETDD < resp.Bound-1e-9 {
		return resp, fmt.Errorf("etdd %v with lower bound %v", resp.ETDD, resp.Bound)
	}
	return resp, nil
}

// problemFor rebuilds the D-VLP instance of a spec the way vlpserved
// does before serving.
func problemFor(spec *serial.SolveSpec) (*core.Problem, error) {
	part, err := partitionFor(spec)
	if err != nil {
		return nil, err
	}
	return newProblem(part, spec)
}

// partitionFor is the discretize.New step of a spec, including the wire
// network's conversion to a graph.
func partitionFor(spec *serial.SolveSpec) (*discretize.Partition, error) {
	g, err := spec.Network.ToGraph()
	if err != nil {
		return nil, err
	}
	return discretize.New(g, spec.Delta)
}

func newProblem(part *discretize.Partition, spec *serial.SolveSpec) (*core.Problem, error) {
	var priorP, priorQ []float64
	if len(spec.Prior) > 0 {
		priorP, priorQ = spec.Prior, spec.Prior
	}
	if len(spec.TaskPrior) > 0 {
		priorQ = spec.TaskPrior
	}
	return core.NewProblem(part, core.Config{Epsilon: spec.Epsilon, Radius: spec.Radius, PriorP: priorP, PriorQ: priorQ})
}

// auditEntry replays one stored mechanism from scratch: its Geo-I
// violation against its own spec must be at most geoITol, and the ETDD
// the server reported for it must equal the ETDD recomputed from the
// stored matrix.
func auditEntry(st *store.Store, digest string, servedETDD float64) error {
	e, err := st.LoadEntry(digest)
	if err != nil {
		return err
	}
	pr, err := problemFor(&e.Spec)
	if err != nil {
		return err
	}
	m := &core.Mechanism{Part: pr.Part, Z: e.Z}
	if err := m.Validate(); err != nil {
		return err
	}
	if v := pr.GeoIViolation(m); v > geoITol {
		return fmt.Errorf("Geo-I violation %g", v)
	}
	if etdd := pr.ETDD(m); math.Abs(etdd-servedETDD) > 1e-9*math.Max(1, etdd) {
		return fmt.Errorf("served ETDD %v, stored matrix gives %v", servedETDD, etdd)
	}
	return nil
}
