package lp

import "math"

// syrkKernel computes the eight dot products of rows {wi0, wi1} against
// {w0..w3} over their first len(wi0)&^3 elements: out[4a+b] = wia·wb.
// Every row holds at least len(wi0) elements (the assembly trusts it).
// Each dot product sums four lanes, lane k fusing the multiply-adds of
// every t ≡ k (mod 4) in ascending order from +0, and combines them as
// (l0+l2)+(l1+l3). Every implementation computes exactly these bits, so
// the served mechanism does not depend on which one the host runs.
type syrkKernel func(wi0, wi1, w0, w1, w2, w3 []float64) [8]float64

// syrkDot2x4 is the kernel formNormal runs: syrkDot2x4Go, unless
// syrk_amd64.go's init finds AVX2 and FMA and installs the assembly.
var syrkDot2x4 syrkKernel = syrkDot2x4Go

// syrkDot2x4Go is the portable syrkKernel. math.FMA rounds once, as the
// assembly's VFMADD231PD does, on every platform. Each pass computes
// one lane of all eight dot products, so eight independent chains cover
// the multiply-add latency.
func syrkDot2x4Go(wi0, wi1, w0, w1, w2, w3 []float64) (out [8]float64) {
	n := len(wi0) &^ 3
	wi0, wi1 = wi0[:n], wi1[:n]
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	var lanes [4][8]float64
	for k := range lanes {
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for t := k; t < n; t += 4 {
			v0, v1 := wi0[t], wi1[t]
			x := w0[t]
			s00 = math.FMA(v0, x, s00)
			s10 = math.FMA(v1, x, s10)
			x = w1[t]
			s01 = math.FMA(v0, x, s01)
			s11 = math.FMA(v1, x, s11)
			x = w2[t]
			s02 = math.FMA(v0, x, s02)
			s12 = math.FMA(v1, x, s12)
			x = w3[t]
			s03 = math.FMA(v0, x, s03)
			s13 = math.FMA(v1, x, s13)
		}
		lanes[k] = [8]float64{s00, s01, s02, s03, s10, s11, s12, s13}
	}
	for i := range out {
		out[i] = (lanes[0][i] + lanes[2][i]) + (lanes[1][i] + lanes[3][i])
	}
	return out
}

// syrkUpperInto accumulates the upper triangle of W·Wᵀ into the L×L
// block of mmat anchored at (r0, r0), where W is L×G row-major. The G
// dimension is processed in cache-sized chunks and rows pair 2×4 —
// eight independent multiply-add chains per inner pass, enough to
// cover the FP add latency — with every partner-row load shared by
// two accumulators. This is the ILP the plain read-modify-write
// rank-one form cannot reach. kern computes each 2×4 block; the
// diagonal, the block tails and the remaining rows are plain loops
// whose products are written float64(a*b), which the Go spec forbids
// fusing into the following add, so they round alike on every
// platform.
func syrkUpperInto(kern syrkKernel, w []float64, l, g int, mmat []float64, r0, m int) {
	const gBlock = 512
	for g0 := 0; g0 < g; g0 += gBlock {
		g1 := g0 + gBlock
		if g1 > g {
			g1 = g
		}
		i := 0
		for ; i+1 < l; i += 2 {
			wi0 := w[i*g+g0 : i*g+g1]
			wi1 := w[(i+1)*g+g0 : (i+1)*g+g1]
			wi1 = wi1[:len(wi0)]
			base0 := (r0+i)*m + r0
			base1 := (r0+i+1)*m + r0
			// The 2×2 triangle on the diagonal.
			var d00, d01, d11 float64
			for t, v0 := range wi0 {
				v1 := wi1[t]
				d00 += float64(v0 * v0)
				d01 += float64(v0 * v1)
				d11 += float64(v1 * v1)
			}
			mmat[base0+i] += d00
			mmat[base0+i+1] += d01
			mmat[base1+i+1] += d11
			j := i + 2
			for ; j+3 < l; j += 4 {
				w0 := w[j*g+g0 : j*g+g1]
				w1 := w[(j+1)*g+g0 : (j+1)*g+g1]
				w2 := w[(j+2)*g+g0 : (j+2)*g+g1]
				w3 := w[(j+3)*g+g0 : (j+3)*g+g1]
				w0, w1 = w0[:len(wi0)], w1[:len(wi0)]
				w2, w3 = w2[:len(wi0)], w3[:len(wi0)]
				s := kern(wi0, wi1, w0, w1, w2, w3)
				for t := len(wi0) &^ 3; t < len(wi0); t++ {
					v0, v1 := wi0[t], wi1[t]
					x := w0[t]
					s[0] += float64(v0 * x)
					s[4] += float64(v1 * x)
					x = w1[t]
					s[1] += float64(v0 * x)
					s[5] += float64(v1 * x)
					x = w2[t]
					s[2] += float64(v0 * x)
					s[6] += float64(v1 * x)
					x = w3[t]
					s[3] += float64(v0 * x)
					s[7] += float64(v1 * x)
				}
				for b := 0; b < 4; b++ {
					mmat[base0+j+b] += s[b]
					mmat[base1+j+b] += s[4+b]
				}
			}
			for ; j < l; j++ {
				wj := w[j*g+g0 : j*g+g1]
				wj = wj[:len(wi0)]
				var s0, s1 float64
				for t, v0 := range wi0 {
					s0 += float64(v0 * wj[t])
					s1 += float64(wi1[t] * wj[t])
				}
				mmat[base0+j] += s0
				mmat[base1+j] += s1
			}
		}
		// Remainder row when L is odd.
		for ; i < l; i++ {
			wi := w[i*g+g0 : i*g+g1]
			base := (r0 + i) * m
			for j := i; j < l; j++ {
				wj := w[j*g+g0 : j*g+g1]
				wj = wj[:len(wi)]
				s := 0.0
				for t, v := range wi {
					s += float64(v * wj[t])
				}
				mmat[base+r0+j] += s
			}
		}
	}
}
