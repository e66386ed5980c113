// Package mem defines physical addresses, block arithmetic helpers, and the
// off-chip memory (DRAM) timing/traffic model that backs the L2 caches.
package mem

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// BlockAddr returns the address of the cache block containing a, for the
// given block size in bytes.  blockSize must be a power of two.
func BlockAddr(a Addr, blockSize uint64) Addr {
	return a &^ Addr(blockSize-1)
}

// IsPowerOfTwo reports whether v is a non-zero power of two.
func IsPowerOfTwo(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}

// Log2 returns floor(log2(v)); it panics for v == 0.
func Log2(v uint64) uint {
	if v == 0 {
		panic("mem: Log2 of zero")
	}
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// String renders an address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }
