// Package invariant is the sanctioned panic path for the library
// packages of this module.
//
// The compression core promises bit-exact invertibility under hardware
// invariants (C_E-bit codes, C_MDATA-bit dictionary words). When such an
// invariant is violated the program state is unusable and continuing
// would silently corrupt downstream bit streams, so the only safe move
// is to stop — but library code must do so through one auditable
// chokepoint rather than scattered bare panics. The lzwtcvet
// panic-policy check enforces exactly that: `internal/*` library
// packages may panic only by calling into this package.
package invariant

import "fmt"

// violation is the panic value raised by this package, so recover()
// sites can distinguish invariant violations from other panics.
type violation struct {
	Msg string
}

// Error implements error, making a recovered violation usable as one.
func (v violation) Error() string { return "invariant violation: " + v.Msg }

// String returns the same rendering as Error.
func (v violation) String() string { return v.Error() }

// Violatef reports a broken invariant and halts by panicking with a
// violation value.
func Violatef(format string, args ...any) {
	panic(violation{Msg: fmt.Sprintf(format, args...)})
}

// Check panics with a violation when cond is false.
func Check(cond bool, format string, args ...any) {
	if !cond {
		Violatef(format, args...)
	}
}

// Must panics with a violation when err is non-nil. It is for call
// sites whose error is impossible by construction (widths matched by the
// caller, literals validated at build time); genuinely fallible calls
// must propagate their error instead.
func Must(err error) {
	if err != nil {
		Violatef("%v", err)
	}
}

// Width asserts that n is a legal bit-stream field width, in [1,64],
// and returns it. Wrapping a computed width in Width is the sanctioned
// way to satisfy the lzwtcvet bitwidth check when the bound cannot be
// proven statically: the check credits the call because the guard runs
// at every execution.
func Width(n int) int {
	if n < 1 || n > 64 {
		Violatef("bit width %d out of range [1,64]", n)
	}
	return n
}
