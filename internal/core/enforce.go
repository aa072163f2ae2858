package core

import "fmt"

// GeoITol is the Geo-I violation ceiling every mechanism handed out —
// served by vlpserved, returned by the vlp façade, written by vlpsolve —
// is repaired to with EnforceGeoI: an order of magnitude below the 1e-9
// the service advertises.
const GeoITol = 1e-10

// EnforceGeoI returns a mechanism whose full (ε, r)-Geo-I violation is at
// most tol, together with its ETDD under the problem's costs.
//
// Column-generation output is feasible only up to solver tolerances
// (~1e-7): column recovery clamps LP duals and row normalisation rescales
// each row by its own factor, either of which can push a tight Geo-I
// constraint slightly past equality. A serving layer must not hand out
// mechanisms that quietly break the privacy guarantee, so this routine
// repairs the residue by mixing toward the problem's ε/2 exponential
// mechanism — strictly feasible with positive slack on every constraint —
// escalating the mixing weight geometrically until the *full* constraint
// set verifies. Geo-I constraints are linear in Z, so feasibility of the
// mix follows from feasibility of both endpoints; the solved mechanism's
// violation is tiny, hence the accepted weight is tiny and the ETDD shift
// is far below the solver's own optimality gap.
//
// The input mechanism is never mutated. If even a full switch to the
// exponential mechanism cannot reach tol (impossible for tol ≥ 0 on a
// well-formed problem, but guarded anyway) an error is returned.
func (pr *Problem) EnforceGeoI(m *Mechanism, tol float64) (*Mechanism, float64, error) {
	if v := pr.GeoIViolation(m); v <= tol {
		return m, pr.ETDD(m), nil
	}
	exp := pr.ExponentialMechanism()
	k := pr.Part.K()
	for alpha := 1e-7; alpha < 1; alpha *= 8 {
		z := make([]float64, k*k)
		for idx := range z {
			z[idx] = (1-alpha)*m.Z[idx] + alpha*exp.Z[idx]
		}
		mixed := &Mechanism{Part: pr.Part, Z: z}
		if pr.GeoIViolation(mixed) <= tol {
			return mixed, pr.ETDD(mixed), nil
		}
	}
	if pr.GeoIViolation(exp) <= tol {
		return exp, pr.ETDD(exp), nil
	}
	return nil, 0, fmt.Errorf("core: cannot repair mechanism to Geo-I violation ≤ %g", tol)
}
