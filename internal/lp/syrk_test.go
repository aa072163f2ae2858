package lp

import (
	"math"
	"testing"
)

// syrkRef is the O(L²·G) textbook upper-triangle W·Wᵀ accumulation the
// blocked kernel must reproduce.
func syrkRef(w []float64, l, g int, mmat []float64, r0, m int) {
	for i := 0; i < l; i++ {
		for j := i; j < l; j++ {
			s := 0.0
			for t := 0; t < g; t++ {
				s += w[i*g+t] * w[j*g+t]
			}
			mmat[(r0+i)*m+(r0+j)] += s
		}
	}
}

func TestSyrkUpperIntoMatchesReference(t *testing.T) {
	rng := uint64(0x243f6a8885a308d3)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%2048)/1024 - 1
	}
	for _, tc := range []struct{ l, g, r0, m int }{
		{1, 1, 0, 4},
		{2, 3, 1, 6},
		{5, 7, 0, 8},
		{8, 64, 2, 16},
		{13, 513, 3, 20},  // odd L, G past one cache chunk
		{44, 1027, 7, 96}, // the K44 master shape, unaligned G
	} {
		w := make([]float64, tc.l*tc.g)
		for i := range w {
			w[i] = next()
		}
		got := make([]float64, tc.m*tc.m)
		want := make([]float64, tc.m*tc.m)
		syrkUpperInto(syrkDot2x4, w, tc.l, tc.g, got, tc.r0, tc.m)
		syrkRef(w, tc.l, tc.g, want, tc.r0, tc.m)
		for i := range want {
			// The blocked kernel reassociates the sums (chunked G, four
			// lanes of fused multiply-adds), so allow rounding-level
			// differences only.
			if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("L=%d G=%d r0=%d m=%d: mmat[%d] = %g, want %g (diff %g)",
					tc.l, tc.g, tc.r0, tc.m, i, got[i], want[i], d)
			}
		}
	}
}

// syrkLaneRef is the syrkKernel contract written out one dot product at
// a time: lane t&3 fuses each multiply-add, then (l0+l2)+(l1+l3).
func syrkLaneRef(wi0, wi1, w0, w1, w2, w3 []float64) (out [8]float64) {
	n := len(wi0) &^ 3
	for a, wi := range [2][]float64{wi0, wi1} {
		for b, wj := range [4][]float64{w0, w1, w2, w3} {
			var lane [4]float64
			for t := 0; t < n; t++ {
				lane[t&3] = math.FMA(wi[t], wj[t], lane[t&3])
			}
			out[4*a+b] = (lane[0] + lane[2]) + (lane[1] + lane[3])
		}
	}
	return out
}

// syrkRows returns l×g row-major values spread over several binades,
// with signed zeros mixed in, so a reordered or unfused sum shows in
// the low bits.
func syrkRows(seed uint64, l, g int) []float64 {
	w := make([]float64, l*g)
	for i := range w {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		switch seed % 17 {
		case 0:
			w[i] = 0
		case 1:
			w[i] = math.Copysign(0, -1)
		default:
			w[i] = math.Ldexp(float64(int64(seed>>11))/(1<<52)-0.5, int(seed%9)-4)
		}
	}
	return w
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSyrkKernelsBitIdentical pins the one SYRK arithmetic: the kernel
// this host runs (the AVX2 assembly where the CPU has AVX2 and FMA) and
// the portable Go kernel agree bit for bit with the lane reference on
// single 2×4 blocks, and whole syrkUpperInto runs agree bit for bit
// across kernels. G covers no kernel call (G < 4), kernel tails, and
// the gBlock chunk edge.
func TestSyrkKernelsBitIdentical(t *testing.T) {
	kernels := []struct {
		name string
		kern syrkKernel
	}{{"host", syrkDot2x4}, {"go", syrkDot2x4Go}}
	gs := []int{1, 3, 4, 5, 511, 512, 513, 1027}
	seed := uint64(0x13198a2e03707344)
	for _, g := range gs {
		for rep := 0; rep < 8; rep++ {
			seed += 0x9e3779b97f4a7c15
			rows := syrkRows(seed, 6, g)
			r := func(i int) []float64 { return rows[i*g : (i+1)*g] }
			want := syrkLaneRef(r(0), r(1), r(2), r(3), r(4), r(5))
			for _, k := range kernels {
				got := k.kern(r(0), r(1), r(2), r(3), r(4), r(5))
				if i := sameBits(got[:], want[:]); i >= 0 {
					t.Fatalf("%s kernel G=%d rep %d: out[%d] = %x, lane reference %x",
						k.name, g, rep, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
	for _, l := range []int{1, 2, 3, 4, 5, 6, 44} {
		for _, g := range gs {
			seed += 0x9e3779b97f4a7c15
			w := syrkRows(seed, l, g)
			const r0 = 1
			m := l + 3
			host := syrkRows(seed^1, m, m)
			goK := append([]float64(nil), host...)
			syrkUpperInto(syrkDot2x4, w, l, g, host, r0, m)
			syrkUpperInto(syrkDot2x4Go, w, l, g, goK, r0, m)
			if i := sameBits(host, goK); i >= 0 {
				t.Fatalf("syrkUpperInto L=%d G=%d: mmat[%d] host kernel %x, Go kernel %x",
					l, g, i, math.Float64bits(host[i]), math.Float64bits(goK[i]))
			}
		}
	}
}
