package lp

// syrkDot2x4AVX2 is the AVX2+FMA syrkKernel (syrk_amd64.s): one vector
// lane per t mod 4, the lanes combined as the kernel contract says, so
// it computes syrkDot2x4Go's bits about ten times faster.
//
//go:noescape
func syrkDot2x4AVX2(wi0, wi1, w0, w1, w2, w3 []float64) [8]float64

func cpuidLP(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvLP() (eax, edx uint32)

// Installs the assembly kernel once, when the CPU supports AVX2 and FMA
// with OS-enabled YMM state.
func init() {
	if hasAVX2FMA() {
		syrkDot2x4 = syrkDot2x4AVX2
	}
}

func hasAVX2FMA() bool {
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
}
