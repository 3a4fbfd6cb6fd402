//go:build lzwtc_poison

package slab

// poisoned is on under the lzwtc_poison tag: every slab Get hands out
// is poisoned, so code that reads memory it never wrote, or that keeps
// using a slab after Put, fails the test suites.
const poisoned = true
