package engine

import (
	"io"
	"sync"
	"testing"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// A Cache keeps its own copy of what it records and serves that copy,
// ReadOnly, on every later epoch. The tests below pin what that copy may
// cost (its size), who may write it (nobody: writers get copies, chosen by
// viewPlan — see TestStorageViewSelection), and who may recycle it (nobody:
// the pool never sees it).

// cacheCatalog has fixed 8 000 B records: a copy of one is 8 192 B of
// capacity, which is a pool size class, so a cached copy recycled by mistake
// would enter the buffer pool.
var cacheCatalog = data.Catalog{
	Name:                "engine-cache-test",
	NumFiles:            2,
	RecordsPerFile:      24,
	MeanRecordBytes:     8000,
	DecodeAmplification: 1,
}

var registerCacheOnce sync.Once

// cacheSetup is viewRegistry plus cacheCatalog, "increment" (a Body that
// adds one to every byte of its input in place) and "decode4x" (the vision
// workload's cost-model decode).
func cacheSetup(t *testing.T) (*connector.SimFS, *udf.Registry) {
	t.Helper()
	registerCacheOnce.Do(func() {
		if err := data.RegisterCatalog(cacheCatalog); err != nil {
			panic(err)
		}
	})
	fs, reg := viewRegistry(t)
	fs.AddCatalog(cacheCatalog, 7)
	for _, u := range []udf.UDF{
		{Name: "increment", Cost: udf.Cost{SizeFactor: 1}, Body: func(in data.Element) (data.Element, bool, error) {
			for i := range in.Payload {
				in.Payload[i]++
			}
			return in, true, nil
		}},
		{Name: "decode4x", Cost: udf.Cost{SizeFactor: 4}},
	} {
		if err := reg.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	return fs, reg
}

// byteCounts is how many times each byte value occurs in a set of payloads:
// the same however records are ordered or grouped into minibatches.
type byteCounts [256]int64

func (c *byteCounts) add(b []byte) {
	for _, v := range b {
		c[v]++
	}
}

// TestCacheBodyWritersGetCopies runs src -> Cache -> Map(a Body that
// increments every byte in place) -> Batch(8) -> Repeat(3). The Body writes
// the original on the fill epoch and a copy on every served one, so each
// epoch delivers the catalog with every byte plus one. If the Body wrote the
// cache's bytes, each epoch would add one more.
func TestCacheBodyWritersGetCopies(t *testing.T) {
	var want byteCounts
	for rec, n := range wantPayloads(t, 1) {
		for _, v := range []byte(rec) {
			want[v+1] += int64(n)
		}
	}
	fs, reg := cacheSetup(t)
	g := pipeline.NewBuilder().Interleave(testCatalog.Name, 2).Cache().Map("increment", 2).Batch(8).Repeat(3).MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	perEpoch := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	var got [3]byteCounts
	var examples int64
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if epoch := examples / perEpoch; epoch < 3 {
			got[epoch].add(e.Payload)
		}
		examples += int64(e.Count)
		p.Recycle(e)
	}
	if examples != 3*perEpoch {
		t.Fatalf("delivered %d examples over 3 epochs, want %d", examples, 3*perEpoch)
	}
	for epoch := range got {
		if got[epoch] != want {
			t.Errorf("epoch %d: delivered bytes differ from the catalog incremented once", epoch+1)
		}
	}
}

// TestCacheServedPayloadsStayOutOfThePool drains src -> Cache -> Repeat(3),
// whose consumer gets the cache's own copies from epoch 2 on. It recycles
// every element, then writes into a fresh pool buffer of the same size
// class. Were a served copy handed to the pool by Recycle, that buffer would
// be the cache's, and epoch 3 would deliver what the consumer wrote.
func TestCacheServedPayloadsStayOutOfThePool(t *testing.T) {
	fs, reg := cacheSetup(t)
	g := pipeline.NewBuilder().Interleave(cacheCatalog.Name, 2).Cache().Repeat(3).MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	perEpoch := cacheCatalog.NumFiles * cacheCatalog.RecordsPerFile
	epochs := make([]map[string]int, 3)
	var scribbled [][]byte // kept, so each GetBuf draws a buffer the pool still holds
	for i := 0; ; i++ {
		e, err := p.Next()
		if err == io.EOF {
			if i != 3*perEpoch {
				t.Fatalf("delivered %d records over 3 epochs, want %d", i, 3*perEpoch)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if epochs[i/perEpoch] == nil {
			epochs[i/perEpoch] = make(map[string]int)
		}
		epochs[i/perEpoch][string(e.Payload)]++
		n := len(e.Payload)
		p.Recycle(e)
		b := data.GetBuf(n)
		for j := range b {
			b[j] = 0xEE
		}
		scribbled = append(scribbled, b)
	}
	for epoch := 1; epoch < 3; epoch++ {
		comparePayloadMultisets(t, "served epoch", epochs[epoch], epochs[0])
	}
}

// TestCacheKeepsRightSizedCopies fills a cache on the vision workload's
// shape: 8 000 B records decoded 4x to 32 000 B, batched by 16, cached above
// the batch. Each minibatch arrives in an assembly buffer sized with
// headroom and rounded up to a pool class (1 MiB for 512 000 B); the entry
// must hold what the plan budgets for — the minibatch's bytes — not that
// buffer.
func TestCacheKeepsRightSizedCopies(t *testing.T) {
	fs, reg := cacheSetup(t)
	g := pipeline.NewBuilder().Interleave(cacheCatalog.Name, 2).Map("decode4x", 2).Batch(16).Named("c").Cache().MustBuild()
	p, err := New(g, Options{FS: fs, UDFs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	entry := p.caches.entries["c"]
	var logical, resident int64
	for _, e := range entry.elems {
		logical += e.Size
		resident += int64(cap(e.Payload))
	}
	if want := int64(cacheCatalog.NumFiles*cacheCatalog.RecordsPerFile) * 4 * cacheCatalog.MeanRecordBytes; !entry.complete || logical != want {
		t.Fatalf("entry complete = %v holding %d B, want a complete fill of %d B", entry.complete, logical, want)
	}
	if ratio := float64(resident) / float64(logical); ratio > 1.05 {
		t.Fatalf("the cache keeps %d B of capacity for %d B of minibatches (%.2fx), want at most 1.05x", resident, logical, ratio)
	}
}
