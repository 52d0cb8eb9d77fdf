package main

import (
	"hash/crc32"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// readMetric reads one runtime/metrics uint64 sample without stopping the
// world (runtime.ReadMemStats would).
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects") }

// liveHeapMiB forces a collection and returns the heap bytes that survived
// it. Called with a pipeline still open, that is the memory the pipeline
// holds: its cache, its buffers, the dataset behind it.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pool victim caches the first one filled
	return float64(readMetric("/memory/classes/heap/objects:bytes")) / (1 << 20)
}

// processCPU is the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSpeedNominal is what hostSpeed reads on the build host when nothing
// else runs on it.
const hostSpeedNominal = 52 * time.Millisecond

// hostSpeed times a fixed piece of CPU- and memory-bound work that belongs to
// the benchmark, not to the product: 64 passes of CRC-32C and a copy over
// 8 MiB in 1000-byte records, about 50 ms. This host's speed for such work
// moves by 20-40% for minutes at a time with what its neighbours do; the
// measurements that are real CPU work (everything on hotpath, and set-up
// everywhere) are divided by hostSpeed/hostSpeedNominal taken right around
// them, which leaves a 3% wobble where the raw times have 30%.
func hostSpeed() time.Duration {
	if speedSrc == nil {
		speedSrc, speedDst = make([]byte, 8<<20), make([]byte, 8<<20)
		for i := range speedSrc {
			speedSrc[i], speedDst[i] = byte(i*131), 1 // touch both: page faults are not host speed
		}
	}
	start := time.Now()
	var sum uint32
	for pass := 0; pass < 64; pass++ {
		for off := 0; off+1000 <= len(speedSrc); off += 1000 {
			rec := speedSrc[off : off+1000]
			sum += crc32.Checksum(rec, speedTable)
			copy(speedDst[off:], rec)
		}
	}
	speedSink += sum
	return time.Since(start)
}

// speedFactor turns two hostSpeed readings taken around a measurement into
// the factor that converts its wall time to nominal-host time.
func speedFactor(before, after time.Duration) float64 {
	return 2 * float64(hostSpeedNominal) / float64(before+after)
}

// releaseHostSpeed drops the probe's buffers, so that they do not count as
// live heap.
func releaseHostSpeed() { speedSrc, speedDst = nil, nil }

var (
	speedSrc, speedDst []byte
	speedTable         = crc32.MakeTable(crc32.Castagnoli)
	speedSink          uint32
)
