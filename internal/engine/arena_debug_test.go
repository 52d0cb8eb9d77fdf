//go:build arena_debug

package engine

import (
	"testing"

	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// TestArenaPoisonOnReclaim only runs under -tags=arena_debug: a reclaimed
// block must be stamped with the poison byte, so any stage still reading a
// released view sees loud garbage instead of silently stale record bytes.
func TestArenaPoisonOnReclaim(t *testing.T) {
	a := newArena()
	v := a.alloc(64)
	for i := range v {
		v[i] = 0xAA
	}
	b := a.cur
	a.seal()
	b.ReleasePayload(v) // last reference: poisoned and recycled
	for i, c := range v {
		if c != arenaPoison {
			t.Fatalf("reclaimed view byte %d = %#x, want poison %#x", i, c, arenaPoison)
		}
	}
}

// TestViewChainActivatesNoArenaBlocks: a chain whose source serves storage
// views never touches the arena — every record goes from the connector's
// bytes straight into the batch — while the same chain with a Body below the
// batch falls back to arena copies, and gives every block back.
func TestViewChainActivatesNoArenaBlocks(t *testing.T) {
	reg := costedRegistry(t, 0, false)
	total := int64(testCatalog.NumFiles * testCatalog.RecordsPerFile)
	for _, tc := range []struct {
		udf   string
		views bool
	}{{"noop", true}, {"costly", false}} {
		fs, _ := testSetup(t)
		g := pipeline.NewBuilder().Named("src").Interleave(testCatalog.Name, 2).Map(tc.udf, 2).Batch(8).Prefetch(4).MustBuild()
		live, activated := arenaLive(), arenaActivations.Load()
		p, err := New(g, Options{FS: fs, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, examples, err := p.Drain(0); err != nil || examples != total {
			t.Fatalf("%s: drained %d examples, want %d: %v", tc.udf, examples, total, err)
		}
		p.Close()
		if got := arenaActivations.Load() - activated; (got == 0) != tc.views {
			t.Errorf("%s: drain activated %d arena blocks; storage views = %v", tc.udf, got, tc.views)
		}
		if got := arenaLive(); got != live {
			t.Errorf("%s: %d arena blocks still live after the closed drain", tc.udf, got-live)
		}
	}
}

// TestMidStreamCloseLeavesNoArenaBlock: a pipeline closed three minibatches
// in retires every element its stages still hold — a Shuffle's buffer, a
// Filter's run, a Zip's partial tuple — so no arena block is left waiting on
// a view nobody will release. The Map has a Body, so records are arena
// copies, not storage views.
func TestMidStreamCloseLeavesNoArenaBlock(t *testing.T) {
	fs, reg := combinerSetup(t)
	for _, u := range []udf.UDF{
		{Name: "copy", Cost: udf.Cost{SizeFactor: 1}, Body: func(in data.Element) (data.Element, bool, error) { return in, true, nil }},
		{Name: "half", Cost: udf.Cost{KeepFraction: 0.5}},
	} {
		if err := reg.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	src := func() *pipeline.Builder { return pipeline.NewBuilder().Interleave(testCatalog.Name, 2).Map("copy", 2) }
	aux := pipeline.NewBuilder().Named("aux_source").Interleave(auxCatalog.Name, 1).Named("aux_copy").Map("copy", 1).MustBuild()
	for _, tc := range []struct {
		name string
		g    *pipeline.Graph
	}{
		{"shuffle", src().Shuffle(64).Batch(8).MustBuild()},
		{"filter", src().Filter("half").Batch(8).MustBuild()},
		{"zip", pipeline.ZipOf(src().MustBuild(), aux).Batch(8).MustBuild()},
	} {
		live := arenaLive()
		p, err := New(tc.g, Options{FS: fs, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			e, err := p.Next()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			p.Recycle(e)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if n := arenaLive() - live; n != 0 {
			t.Errorf("%s: %d arena blocks live after closing mid-stream", tc.name, n)
		}
	}
}
