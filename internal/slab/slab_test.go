package slab

import (
	"sync"
	"testing"
)

// TestGetSizes: Get returns the length asked for in a slab of the next
// power-of-two capacity, nil for no length, and an exact slab past the
// last class.
func TestGetSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 1000, 1024, 1025} {
		s := Get[uint64](n)
		want := 1
		for want < n {
			want *= 2
		}
		if len(s) != n || cap(s) != want {
			t.Fatalf("Get(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, want)
		}
		Put(s)
	}
	if s := Get[byte](0); s != nil {
		t.Fatalf("Get(0) = %v, want nil", s)
	}
}

// TestPutKeepsClassesExact: a slab whose capacity is not a class size
// is never filed, so every slab Get hands out has its class's capacity.
func TestPutKeepsClassesExact(t *testing.T) {
	for i := 0; i < 8; i++ {
		Put(make([]int32, 100, 100))
		Put(make([]int32, 0, 96))
	}
	for i := 0; i < 8; i++ {
		if s := Get[int32](100); cap(s) != 128 {
			t.Fatalf("Get(100) has capacity %d, want 128", cap(s))
		}
	}
}

// TestRecycles: a slab put back is handed out again, as the same
// memory, to the next Get of its class on the same goroutine.
func TestRecycles(t *testing.T) {
	s := Get[uint32](300)
	Put(s)
	if r := Get[uint32](257); &r[0] != &s[0] {
		t.Skip("the pool dropped the slab (a GC ran, or -race drops puts)")
	}
}

// TestConcurrentGetPut: goroutines drawing, writing and returning slabs
// of the same classes never hold the same slab at once.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(mark uint64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := Get[uint64](1 + i%700)
				for j := range s {
					s[j] = mark
				}
				for j := range s {
					if s[j] != mark {
						t.Errorf("slab shared between goroutines: word %d is %d, want %d", j, s[j], mark)
						return
					}
				}
				Put(s)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

// TestPoison: under lzwtc_poison every numeric slab Get hands out,
// fresh or recycled, reads as 0xFF bytes, and every slab of pointers
// as nil; otherwise a fresh slab is zero.
func TestPoison(t *testing.T) {
	x := 7
	ptrs := Get[*int](16)
	for i := range ptrs {
		ptrs[i] = &x
	}
	Put(ptrs)
	words, ptrs := Get[uint64](200), Get[*int](16)
	for i, w := range words {
		if poisoned && w != ^uint64(0) {
			t.Fatalf("poisoned word %d is %x", i, w)
		}
	}
	if poisoned {
		for i, p := range ptrs {
			if p != nil {
				t.Fatalf("poisoned pointer %d is not nil", i)
			}
		}
	}
	if fresh := Get[uint16](1 << 20); !poisoned && fresh[len(fresh)-1] != 0 {
		t.Fatal("a fresh slab is not zero")
	}
}
