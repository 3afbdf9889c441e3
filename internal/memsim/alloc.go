package memsim

import "sync/atomic"

// Allocator hands out simulated addresses for the persistent heap the
// lock-free structures live in. It is a bump allocator: deterministic,
// lock-free, and 8-byte aligned, with optional padding so elision schemes
// that inflate objects (FliT adjacent) pay their true cache footprint.
type Allocator struct {
	next atomic.Uint64
}

// NewAllocator starts the heap at base (line-aligned).
func NewAllocator(base uint64) *Allocator {
	a := &Allocator{}
	a.next.Store((base + 63) &^ 63)
	return a
}

// Cursor returns the address the next allocation starts its search from.
// Two allocators that served the same sequence of requests agree on it.
func (a *Allocator) Cursor() uint64 { return a.next.Load() }

// Alloc returns an 8-byte aligned address for an object of size bytes.
// Objects never straddle a cache line unless larger than one: the allocator
// pads to the next line when the object would cross a boundary, as real
// persistent allocators do for flush efficiency.
func (a *Allocator) Alloc(size uint64) uint64 {
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	for {
		cur := a.next.Load()
		addr := cur
		if size <= 64 {
			lineOff := addr & 63
			if lineOff+size > 64 {
				addr = (addr + 63) &^ 63
			}
		} else {
			addr = (addr + 63) &^ 63
		}
		if a.next.CompareAndSwap(cur, addr+size) {
			return addr
		}
	}
}

// AllocLine returns a fresh line-aligned address and consumes the whole line.
func (a *Allocator) AllocLine() uint64 {
	for {
		cur := a.next.Load()
		addr := (cur + 63) &^ 63
		if a.next.CompareAndSwap(cur, addr+64) {
			return addr
		}
	}
}
