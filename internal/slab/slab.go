// Package slab is the process's one pool of recycled buffers. A slab is
// a slice of any element type whose capacity is a power of two; slabs
// of one element type and one capacity form a size class, and each
// class is one sync.Pool.
//
// Get(n) hands out a slab of length n from the class of the next power
// of two at or above n, or allocates one of that capacity when the class
// is empty; Put files a slab back under its capacity. A caller that
// never calls Put costs the rounding up alone: the GC takes the slab as
// it would any other allocation.
//
// The classes need no byte cap: a sync.Pool keeps what was put since
// the last two collections and the GC empties the rest, so the pool
// never holds more than the peak of request memory that was live
// anyway, and it drains when traffic stops.
//
// Under the lzwtc_poison build tag every slab Get hands out is
// poisoned instead of carrying its last contents: numeric slabs are
// filled with 0xFF bytes and slabs holding pointers are zeroed, so a
// reader that takes fresh memory to be zero fails.
package slab

import (
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// numClasses bounds the class sizes: 2^0 up to 2^(numClasses-1)
// elements. A longer slab is allocated exactly and never pooled.
const numClasses = 31

// classes is one element type's pools, class k holding slabs of
// capacity 2^k. A pooled slab is stored as the pointer to its first
// element, which boxes into an interface without allocating; the class
// restores its capacity.
type classes struct {
	pools   [numClasses]sync.Pool
	numeric bool // no pointers: poison fills bytes rather than zeroing
}

// registry maps each element type to its classes.
var registry sync.Map // reflect.Type -> *classes

// classesOf returns T's classes, creating them on first use.
func classesOf[T any]() *classes {
	t := reflect.TypeFor[T]()
	if c, ok := registry.Load(t); ok {
		return c.(*classes)
	}
	k := t.Kind()
	c, _ := registry.LoadOrStore(t, &classes{numeric: k >= reflect.Int && k <= reflect.Float64})
	return c.(*classes)
}

// Get returns a slab of length n and power-of-two capacity: a recycled
// one, whose contents are whatever its last user left (poison under
// lzwtc_poison), or a fresh zeroed one. n <= 0 returns nil.
func Get[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	if k >= numClasses {
		return make([]T, n)
	}
	c := classesOf[T]()
	var s []T
	if p, ok := c.pools[k].Get().(unsafe.Pointer); ok {
		s = unsafe.Slice((*T)(p), 1<<k)
	} else {
		s = make([]T, 1<<k)
	}
	if poisoned {
		poison(s, c.numeric)
	}
	return s[:n]
}

// Put files s under its capacity for a later Get. A slab whose
// capacity is not a class size is left to the GC. s must not be used
// after Put, nor put twice.
func Put[T any](s []T) {
	n := cap(s)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	k := bits.TrailingZeros(uint(n))
	if k >= numClasses {
		return
	}
	classesOf[T]().pools[k].Put(unsafe.Pointer(unsafe.SliceData(s[:n])))
}

// poison overwrites a slab handed out under lzwtc_poison.
func poison[T any](s []T, numeric bool) {
	if !numeric {
		clear(s)
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(s[0]))
	for i := range b {
		b[i] = 0xFF
	}
}
