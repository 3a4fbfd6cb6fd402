//go:build !lzwtc_poison

package bitvec

// poison is off in normal builds: Release returns plane chunks as their
// set left them. See poison_on.go.
const poison = false
