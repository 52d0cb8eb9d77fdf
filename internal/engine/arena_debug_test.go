//go:build arena_debug

package engine

import (
	"testing"

	"plumber/internal/pipeline"
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
