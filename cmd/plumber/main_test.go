package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// setupFromFlags parses args as trace's and optimize's workload flags and
// builds the workload they describe.
func setupFromFlags(t *testing.T, args ...string) (*pipeline.Graph, plumber.Options, func()) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var w workload
	w.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	g, opts, cleanup, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	return g, opts, cleanup
}

// chain returns g's nodes from its source to its output (g must be linear).
func chain(t *testing.T, g *pipeline.Graph) []pipeline.Node {
	t.Helper()
	var nodes []pipeline.Node
	for name := g.Output; name != ""; {
		n, err := g.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append([]pipeline.Node{n}, nodes...)
		name = n.Input
	}
	return nodes
}

// checkCost fails unless c is cpuPerElement seconds per element with size
// factor 1 and no per-byte cost.
func checkCost(t *testing.T, c udf.Cost, cpuPerElement float64) {
	t.Helper()
	if math.Abs(c.CPUPerElement-cpuPerElement) > 1e-15 || c.CPUPerByte != 0 || c.SizeFactor != 1 {
		t.Fatalf("UDF cost %+v, want %g s per element with size factor 1", c, cpuPerElement)
	}
}

// The workload flags build source → map → batch over -files ×
// -records-per-file records on every backend, the map costing -udf-cpu-us
// per element; the whole pass reaches the batch.
func TestWorkloadFlagsBuildTheDemoChain(t *testing.T) {
	for _, backend := range []string{"simfs", "localfs", "objectstore"} {
		t.Run(backend, func(t *testing.T) {
			g, opts, cleanup := setupFromFlags(t, "-backend", backend,
				"-files", "3", "-records-per-file", "10", "-record-bytes", "256", "-batch", "5", "-udf-cpu-us", "250")
			defer cleanup()
			if got := opts.Source.Backend(); got != backend {
				t.Fatalf("connector backend %q, want %q", got, backend)
			}
			nodes := chain(t, g)
			if len(nodes) != 3 || !nodes[0].IsSource() || nodes[1].Kind != pipeline.KindMap || nodes[2].Kind != pipeline.KindBatch {
				t.Fatalf("chain %+v, want source → map → batch", nodes)
			}
			if nodes[2].BatchSize != 5 {
				t.Fatalf("batch size %d, want 5", nodes[2].BatchSize)
			}
			cat, err := data.CatalogByName(nodes[0].Catalog)
			if err != nil {
				t.Fatal(err)
			}
			if cat.NumFiles != 3 || cat.RecordsPerFile != 10 || cat.MeanRecordBytes != 256 {
				t.Fatalf("catalog %+v, want 3 files × 10 records of 256 bytes", cat)
			}
			if n := len(opts.Source.List()); n != 3 {
				t.Fatalf("connector serves %d files, want 3", n)
			}
			f, err := opts.UDFs.Lookup(nodes[1].UDF)
			if err != nil {
				t.Fatal(err)
			}
			checkCost(t, f.Cost, 250e-6)

			snap, err := plumber.Trace(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := snap.Nodes[nodes[0].Name].ElementsProduced; got != 30 {
				t.Fatalf("source produced %d records, want 30", got)
			}
			if got := snap.Nodes[nodes[2].Name].ElementsProduced; got != 6 {
				t.Fatalf("batch produced %d minibatches, want 6", got)
			}
		})
	}
}

// A -graph program replaces the chain; a UDF it names that the workload's
// registry does not know gets a stand-in costing -udf-cpu-us per element.
func TestGraphFlagRegistersStandInUDFs(t *testing.T) {
	flags := []string{"-files", "2", "-records-per-file", "8", "-udf-cpu-us", "40"}
	demo, _, cleanup := setupFromFlags(t, flags...)
	cleanup()
	g, err := pipeline.NewBuilder().
		Interleave(chain(t, demo)[0].Catalog, 1).
		Map("unregistered_udf", 1).
		Batch(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, opts, cleanup := setupFromFlags(t, append(flags, "-graph", path)...)
	defer cleanup()
	if nodes := chain(t, loaded); len(nodes) != 3 || nodes[1].UDF != "unregistered_udf" || nodes[2].BatchSize != 4 {
		t.Fatalf("loaded chain %+v, want the -graph program", nodes)
	}
	f, err := opts.UDFs.Lookup("unregistered_udf")
	if err != nil {
		t.Fatalf("no stand-in registered: %v", err)
	}
	checkCost(t, f.Cost, 40e-6)
	if _, err := plumber.Trace(loaded, opts); err != nil {
		t.Fatal(err)
	}
}

// The localfs backend's temp dir lives until the cleanup setup returns.
func TestLocalFSCleanupRemovesItsDir(t *testing.T) {
	_, opts, cleanup := setupFromFlags(t, "-backend", "localfs", "-files", "2", "-records-per-file", "4")
	dir := opts.Source.(*connector.LocalFS).Root()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("localfs dir missing before cleanup: %v", err)
	}
	cleanup()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("localfs dir %s still there after cleanup (stat: %v)", dir, err)
	}
}
