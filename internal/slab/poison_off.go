//go:build !lzwtc_poison

package slab

// poisoned is off in normal builds: Get hands out a recycled slab as
// its last user left it. See poison_on.go.
const poisoned = false
