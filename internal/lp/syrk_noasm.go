//go:build !amd64

package lp

// Non-amd64 builds always use the pure-Go SYRK kernel. A var (not a
// const) so tests can select the kernel the same way on every platform.
var useSyrkAsm = false

// syrkDot2x4 is never called when useSyrkAsm is false; this stub only
// satisfies the reference in the shared kernel driver.
func syrkDot2x4(wi0, wi1, w0, w1, w2, w3 *float64, n int, out *[8]float64) {
	panic("lp: syrkDot2x4 without assembly support")
}
