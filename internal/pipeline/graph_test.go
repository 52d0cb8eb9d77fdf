package pipeline

import (
	"encoding/json"
	"reflect"
	"testing"
)

func testChain(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder().
		Interleave("cat", 1).
		Map("decode", 1).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// snapshotJSON captures a graph's full serialized state so tests can assert
// the receiver of a mutation primitive was left untouched.
func snapshotJSON(t *testing.T, g *Graph) string {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestInsertAbove(t *testing.T) {
	g := testChain(t)
	before := snapshotJSON(t, g)

	g2, err := g.InsertAbove("map_1", Node{Name: "pf", Kind: KindPrefetch, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("InsertAbove result fails Validate: %v", err)
	}
	if snapshotJSON(t, g) != before {
		t.Fatal("InsertAbove mutated the receiver")
	}
	pf, err := g2.Node("pf")
	if err != nil {
		t.Fatal(err)
	}
	if pf.Input != "map_1" {
		t.Fatalf("inserted node consumes %q, want map_1", pf.Input)
	}
	bt, _ := g2.Node("batch_1")
	if bt.Input != "pf" {
		t.Fatalf("former consumer pulls from %q, want pf", bt.Input)
	}

	// Inserting above the output moves the output.
	g3, err := g.InsertAbove(g.Output, Node{Name: "root_pf", Kind: KindPrefetch, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g3.Output != "root_pf" {
		t.Fatalf("output = %q, want root_pf", g3.Output)
	}

	// Error cases never touch the receiver.
	for _, tc := range []struct {
		name   string
		anchor string
		node   Node
	}{
		{"missing anchor", "nope", Node{Name: "x", Kind: KindPrefetch, BufferSize: 1}},
		{"duplicate name", "map_1", Node{Name: "batch_1", Kind: KindPrefetch, BufferSize: 1}},
		{"empty name", "map_1", Node{Kind: KindPrefetch, BufferSize: 1}},
		{"source mid-chain", "map_1", Node{Name: "s2", Kind: KindInterleave, Catalog: "cat"}},
		{"invalid params", "map_1", Node{Name: "pf0", Kind: KindPrefetch}},
	} {
		if _, err := g.InsertAbove(tc.anchor, tc.node); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
		if snapshotJSON(t, g) != before {
			t.Fatalf("%s: failed InsertAbove mutated the receiver", tc.name)
		}
	}
}

func TestRemove(t *testing.T) {
	g := testChain(t)
	g2, err := g.InsertAbove("map_1", Node{Name: "pf", Kind: KindPrefetch, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotJSON(t, g2)

	g3, err := g2.Remove("pf")
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Validate(); err != nil {
		t.Fatalf("Remove result fails Validate: %v", err)
	}
	if snapshotJSON(t, g2) != before {
		t.Fatal("Remove mutated the receiver")
	}
	bt, _ := g3.Node("batch_1")
	if bt.Input != "map_1" {
		t.Fatalf("consumer re-spliced to %q, want map_1", bt.Input)
	}

	// Removing the output promotes its input.
	g4, err := g3.Remove("batch_1")
	if err != nil {
		t.Fatal(err)
	}
	if g4.Output != "map_1" {
		t.Fatalf("output = %q, want map_1", g4.Output)
	}

	// Removing the source breaks the chain-head invariant.
	if _, err := g3.Remove("interleave_1"); err == nil {
		t.Error("removing the source should fail")
	}
	if _, err := g3.Remove("nope"); err == nil {
		t.Error("removing a missing node should fail")
	}
	if snapshotJSON(t, g2) != before {
		t.Fatal("failed Remove mutated the receiver")
	}
}

func TestWithParallelism(t *testing.T) {
	g := testChain(t)
	before := snapshotJSON(t, g)

	g2, err := g.WithParallelism("map_1", 4)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := g2.Node("map_1")
	if n.Parallelism != 4 {
		t.Fatalf("parallelism = %d, want 4", n.Parallelism)
	}
	if snapshotJSON(t, g) != before {
		t.Fatal("WithParallelism mutated the receiver")
	}

	// Raising a sequential node's knob fails validation, receiver intact.
	if _, err := g.WithParallelism("batch_1", 2); err == nil {
		t.Error("parallelizing a sequential batch should fail")
	}
	if _, err := g.WithParallelism("map_1", -1); err == nil {
		t.Error("negative parallelism should fail")
	}
	if _, err := g.WithParallelism("nope", 2); err == nil {
		t.Error("missing node should fail")
	}
	if snapshotJSON(t, g) != before {
		t.Fatal("failed WithParallelism mutated the receiver")
	}
}

func TestWithOuterParallelism(t *testing.T) {
	g := testChain(t)
	before := snapshotJSON(t, g)

	g2, err := g.WithOuterParallelism(3)
	if err != nil {
		t.Fatal(err)
	}
	if g2.OuterParallelism != 3 {
		t.Fatalf("outer parallelism = %d, want 3", g2.OuterParallelism)
	}
	if snapshotJSON(t, g) != before {
		t.Fatal("WithOuterParallelism mutated the receiver")
	}

	if _, err := g.WithOuterParallelism(-1); err == nil {
		t.Error("negative outer parallelism should fail")
	}
	if snapshotJSON(t, g) != before {
		t.Fatal("failed WithOuterParallelism mutated the receiver")
	}
}

func TestValidateOuterParallelism(t *testing.T) {
	g := testChain(t)
	g.OuterParallelism = -2
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject negative OuterParallelism")
	}
	g.OuterParallelism = 0
	if err := g.Validate(); err != nil {
		t.Fatalf("OuterParallelism 0 should validate: %v", err)
	}
}

// TestPrimitivesCompose chains all four primitives and checks the result is
// exactly the hand-built equivalent graph.
func TestPrimitivesCompose(t *testing.T) {
	g := testChain(t)
	g2, err := g.WithParallelism("interleave_1", 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err = g2.WithParallelism("map_1", 4)
	if err != nil {
		t.Fatal(err)
	}
	g2, err = g2.InsertAbove("batch_1", Node{Name: "prefetch_1", Kind: KindPrefetch, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	g2, err = g2.WithOuterParallelism(2)
	if err != nil {
		t.Fatal(err)
	}

	want, err := NewBuilder().
		Interleave("cat", 2).
		Map("decode", 4).
		Batch(8).
		Prefetch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	want.OuterParallelism = 2

	chainGot, err := g2.Chain()
	if err != nil {
		t.Fatal(err)
	}
	chainWant, err := want.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chainGot, chainWant) {
		t.Fatalf("composed chain differs:\n got %+v\nwant %+v", chainGot, chainWant)
	}
	if g2.OuterParallelism != want.OuterParallelism {
		t.Fatalf("outer parallelism %d, want %d", g2.OuterParallelism, want.OuterParallelism)
	}
}
