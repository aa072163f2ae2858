//go:build amd64

package lp

// syrkDot2x4 computes the eight dot products of rows {wi0, wi1} against
// {w0..w3} over n elements (n ≡ 0 mod 4) into out. AVX2+FMA assembly;
// see syrk_amd64.s.
//
//go:noescape
func syrkDot2x4(wi0, wi1, w0, w1, w2, w3 *float64, n int, out *[8]float64)

func cpuidLP(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvLP() (eax, edx uint32)

// useSyrkAsm reports whether the CPU supports AVX2 and FMA with
// OS-enabled YMM state. Probed once at init; the pure-Go kernel remains
// the fallback everywhere else. The two paths round differently (the
// vector path sums four interleaved lanes and fuses multiply-adds), so
// low-order result bits can differ between machines that do and do not
// take this path; each path on its own is fully deterministic, and
// every in-process or same-host comparison — warm-vs-direct, checkpoint
// digests — sees one path only. The golden-digest gate
// (golden_test.go) pins one digest table per path.
var useSyrkAsm = func() bool {
	maxLeaf, _, _, _ := cpuidLP(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidLP(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if c&osxsave == 0 || c&avx == 0 || c&fma == 0 {
		return false
	}
	xcr0, _ := xgetbvLP()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b, _, _ := cpuidLP(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}()
