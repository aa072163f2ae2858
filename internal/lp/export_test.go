package lp

// SyrkAsmSupported reports whether this host runs the AVX2 SYRK kernel
// by default.
var SyrkAsmSupported = useSyrkAsm

// SetSyrkAsm selects the SYRK kernel (true: AVX2 assembly, false: pure
// Go) and returns a function restoring the previous choice. Tests must
// not select the assembly kernel unless SyrkAsmSupported.
func SetSyrkAsm(on bool) (restore func()) {
	prev := useSyrkAsm
	useSyrkAsm = on
	return func() { useSyrkAsm = prev }
}
