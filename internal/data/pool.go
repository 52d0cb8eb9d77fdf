package data

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Payload buffers are recycled through power-of-two size classes, so a
// recycled buffer always has exactly the capacity class the next request of
// similar size needs — no buffer is ever discarded for being a few bytes
// short, which keeps steady-state record reads allocation-free.
const (
	minClassBits = 6  // 64 B
	maxClassBits = 30 // 1 GiB, matches the TFRecord reader's record limit
	numClasses   = maxClassBits - minClassBits + 1
)

// bufClasses[c] holds buffers of capacity exactly 2^(minClassBits+c), each as
// the pointer to its first byte: the class says how long it is, and a pointer
// fits in the pool's interface value as it is, where a slice header would be
// copied to the heap — one object per recycled buffer. It is the module's
// only use of unsafe.
var bufClasses [numClasses]sync.Pool

// classFor returns the size-class index whose capacity (2^(minClassBits+i))
// holds n bytes.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// GetBuf returns a buffer of length n, reusing a pooled buffer of n's size
// class when available. The contents are unspecified; callers must
// overwrite all n bytes.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c >= numClasses {
		return make([]byte, n)
	}
	if v := bufClasses[c].Get(); v != nil {
		return unsafe.Slice(v.(*byte), 1<<(minClassBits+c))[:n]
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// PutBuf returns a buffer to its size-class pool. The caller must not touch
// b after the call; see the Element payload-ownership rules in this package.
func PutBuf(b []byte) {
	n := cap(b)
	if n < 1<<minClassBits {
		return
	}
	// Only pool buffers whose capacity is exactly a class size; oddly-sized
	// buffers (grown by append) would otherwise corrupt the class invariant.
	c := bits.Len(uint(n)) - 1 - minClassBits
	if c < 0 || c >= numClasses || n != 1<<(minClassBits+c) {
		return
	}
	bufClasses[c].Put(unsafe.SliceData(b))
}
