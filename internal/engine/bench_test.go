package engine

import (
	"runtime"
	"sync"
	"testing"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

func benchSetup(b *testing.B) (*connector.SimFS, *udf.Registry) {
	b.Helper()
	registerOnce.Do(func() {
		if err := data.RegisterCatalog(testCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("bench-mem")
	fs.AddCatalog(testCatalog, 7)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "noop", Cost: udf.Cost{SizeFactor: 1}}); err != nil {
		b.Fatal(err)
	}
	// Materialize shards outside the timed region.
	for _, f := range testCatalog.FileNames() {
		r, err := fs.Open(f)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 1<<16)
		for {
			if _, err := r.Read(buf); err != nil {
				break
			}
		}
		r.Close()
	}
	return fs, reg
}

func drainOnce(b *testing.B, fs *connector.SimFS, reg *udf.Registry, g *pipeline.Graph, opts Options) {
	b.Helper()
	opts.FS = fs
	opts.UDFs = reg
	p, err := New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.Drain(0); err != nil {
		b.Fatal(err)
	}
	p.Close()
}

// BenchmarkSourceDrain measures the source stage alone: shard reading,
// TFRecord framing, and the chunked handoff to the consumer.
func BenchmarkSourceDrain(b *testing.B) {
	fs, reg := benchSetup(b)
	g, err := pipeline.NewBuilder().Interleave(testCatalog.Name, 2).Build()
	if err != nil {
		b.Fatal(err)
	}
	bytes := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * testCatalog.MeanRecordBytes
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainOnce(b, fs, reg, g, Options{})
	}
}

// BenchmarkTracedVsUntraced compares the canonical chain with the collector
// attached (sharded counters, sampled timers) against tracing disabled.
func BenchmarkTracedVsUntraced(b *testing.B) {
	fs, reg := benchSetup(b)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	bytes := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * testCatalog.MeanRecordBytes
	b.Run("untraced", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			drainOnce(b, fs, reg, g, Options{})
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			col, err := trace.NewCollector(g, trace.Machine{Name: "bench", Cores: runtime.NumCPU()})
			if err != nil {
				b.Fatal(err)
			}
			drainOnce(b, fs, reg, g, Options{Collector: col, SampleEvery: 16})
		}
	})
}

// hopCatalog is the shape of the benchmark's hotpath workload, a quarter of
// its size: 16 384 records of 1 000 bytes.
var (
	hopCatalog = data.Catalog{Name: "engine-bench-hop", NumFiles: 4, RecordsPerFile: 4096,
		MeanRecordBytes: 1000, RecordBytesStddevFrac: 0.004, DecodeAmplification: 1}
	registerHopOnce sync.Once
)

// BenchmarkMapHop measures what the engine costs an example on the path
// every pipeline runs: records served from memory, a map with no Body (the
// cost model alone, which changes nothing here) at parallelism 1, which runs
// inline on the Batch's goroutine, and a Batch of 64. It runs on the Ps -cpu
// gives it. It reports ns and heap objects per example over whole drains,
// start-up and teardown included.
func BenchmarkMapHop(b *testing.B) {
	_, reg := benchSetup(b)
	registerHopOnce.Do(func() {
		if err := data.RegisterCatalog(hopCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("bench-hop")
	fs.AddCatalog(hopCatalog, 7)
	g := pipeline.NewBuilder().Interleave(hopCatalog.Name, 1).Map("noop", 1).Batch(64).MustBuild()
	drainOnce(b, fs, reg, g, Options{}) // materializes the shards
	examples := float64(b.N) * float64(hopCatalog.NumFiles*hopCatalog.RecordsPerFile)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainOnce(b, fs, reg, g, Options{})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/examples, "ns/example")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/examples, "allocs/example")
}

// BenchmarkMapHopAmplified measures the hop an inflating decode makes: the
// vision workload's 480 records of 8 000 bytes served from memory, a
// cost-model map at parallelism 2 that grows each fourfold, and a Batch of
// 16 copying the 32 000-byte outputs, on the Ps -cpu gives it. It reports
// time, bytes and heap objects per example over whole drains, start-up and
// teardown included.
func BenchmarkMapHopAmplified(b *testing.B) {
	fs, reg := amplifySetup(b)
	g := pipeline.NewBuilder().Interleave(amplifyCatalog.Name, 1).Map("inflate", 2).Batch(16).MustBuild()
	drainOnce(b, fs, reg, g, Options{}) // materializes the shards
	examples := float64(b.N) * float64(amplifyCatalog.NumFiles*amplifyCatalog.RecordsPerFile)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainOnce(b, fs, reg, g, Options{})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/examples, "ns/example")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/examples, "B/example")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/examples, "allocs/example")
}

// tinyCatalog is a tiny-files, metadata-bound input: 1 024 shards of four
// 250-byte records, where opening a shard costs as much as reading it.
var (
	tinyCatalog = data.Catalog{Name: "engine-bench-tiny", NumFiles: 1024, RecordsPerFile: 4,
		MeanRecordBytes: 250, DecodeAmplification: 1}
	registerTinyOnce sync.Once
)

// BenchmarkSourceTinyFiles measures the source's per-shard cost: opening a
// shard, pointing the worker's record reader at it and reading its four
// records, through Interleave(1) → Batch(32). It reports ns per file over
// whole drains, start-up and teardown included.
func BenchmarkSourceTinyFiles(b *testing.B) {
	_, reg := benchSetup(b)
	registerTinyOnce.Do(func() {
		if err := data.RegisterCatalog(tinyCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("bench-tiny")
	fs.AddCatalog(tinyCatalog, 7)
	g := pipeline.NewBuilder().Interleave(tinyCatalog.Name, 1).Batch(32).MustBuild()
	drainOnce(b, fs, reg, g, Options{}) // materializes the shards
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainOnce(b, fs, reg, g, Options{})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(tinyCatalog.NumFiles)), "ns/file")
}

// BenchmarkChunkedVsPerElement compares the chunked/pooled hot path against
// the per-element, unpooled baseline on the canonical chain.
func BenchmarkChunkedVsPerElement(b *testing.B) {
	fs, reg := benchSetup(b)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	bytes := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * testCatalog.MeanRecordBytes
	b.Run("chunked_pooled", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			drainOnce(b, fs, reg, g, Options{})
		}
	})
	b.Run("per_element", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			drainOnce(b, fs, reg, g, Options{ChunkSize: 1, DisableBufferPool: true})
		}
	})
}
