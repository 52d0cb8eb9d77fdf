package trace

import (
	"io"
	"reflect"
	"testing"
	"time"

	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/simfs"
)

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g, err := pipeline.NewBuilder().
		Interleave("cat", 2).
		Map("decode", 2).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{
		Graph: g,
		Machine: Machine{
			Name:             "setup-a",
			Cores:            16,
			MemoryBytes:      32 << 30,
			SchedulableCores: 2,
		},
		Duration: 1500 * time.Millisecond,
		Nodes: map[string]*NodeStats{
			"interleave_1": {
				Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 2,
				ElementsProduced: 4096, BytesProduced: 4 << 20, BytesRead: 5 << 20,
				CPUNanos: 7e8, WallNanos: 9e8,
			},
			"map_1": {
				Name: "map_1", Kind: pipeline.KindMap, Parallelism: 2,
				ElementsProduced: 4096, ElementsConsumed: 4096, BytesProduced: 4 << 20,
				CPUNanos: 3e8, WallNanos: 4e8,
			},
			"batch_1": {
				Name: "batch_1", Kind: pipeline.KindBatch, Parallelism: 1,
				ElementsProduced: 512, ElementsConsumed: 4096, BytesProduced: 4 << 20,
			},
		},
		// Subsampled file observation: 2 of 8 shards seen.
		Files: map[string]int64{
			"/data/cat/cat-00000-of-00008.tfrecord": 2621440,
			"/data/cat/cat-00003-of-00008.tfrecord": 2600000,
		},
		TotalFiles: 8,
	}
}

// TestSnapshotRoundTrip marshals a fully populated snapshot — including the
// Files/TotalFiles subsample fields the size estimator rescales by — and
// checks every field survives the JSON round trip.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	b, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Graph, snap.Graph) {
		t.Fatalf("graph mismatch:\n got %+v\nwant %+v", got.Graph, snap.Graph)
	}
	if got.Machine != snap.Machine {
		t.Fatalf("machine mismatch: got %+v want %+v", got.Machine, snap.Machine)
	}
	if got.Duration != snap.Duration {
		t.Fatalf("duration = %v, want %v", got.Duration, snap.Duration)
	}
	if !reflect.DeepEqual(got.Nodes, snap.Nodes) {
		t.Fatalf("node counters mismatch:\n got %+v\nwant %+v", got.Nodes, snap.Nodes)
	}
	if !reflect.DeepEqual(got.Files, snap.Files) {
		t.Fatalf("files mismatch: got %+v want %+v", got.Files, snap.Files)
	}
	if got.TotalFiles != snap.TotalFiles {
		t.Fatalf("TotalFiles = %d, want %d", got.TotalFiles, snap.TotalFiles)
	}
	if got.ObservedFileBytes() != snap.ObservedFileBytes() {
		t.Fatalf("ObservedFileBytes = %d, want %d", got.ObservedFileBytes(), snap.ObservedFileBytes())
	}

	// Chain-ordered access must work identically on the decoded copy.
	gotChain, err := got.ChainStats()
	if err != nil {
		t.Fatal(err)
	}
	wantChain, err := snap.ChainStats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotChain, wantChain) {
		t.Fatal("ChainStats differs after round trip")
	}
	if !reflect.DeepEqual(got.SortedFileNames(), snap.SortedFileNames()) {
		t.Fatal("SortedFileNames differs after round trip")
	}
}

// TestSnapshotRoundTripOmitsEmpty checks a minimal snapshot (no files, no
// run) round-trips without sprouting spurious fields.
func TestSnapshotRoundTripOmitsEmpty(t *testing.T) {
	snap := testSnapshot(t)
	snap.Files = map[string]int64{}
	snap.TotalFiles = 0
	b, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Run != nil {
		t.Fatalf("Run = %+v, want nil", got.Run)
	}
	if len(got.Files) != 0 || got.TotalFiles != 0 {
		t.Fatalf("subsample fields not empty: %d files, TotalFiles %d", len(got.Files), got.TotalFiles)
	}
}

func TestUnmarshalSnapshotRejectsGarbage(t *testing.T) {
	for _, garbage := range []string{`{"graph": 42`, `{}`} {
		if _, err := UnmarshalSnapshot([]byte(garbage)); err == nil {
			t.Fatalf("expected error on malformed snapshot JSON %s", garbage)
		}
	}
}

// TestCollectorIgnoresForeignReads puts two catalogs on one filesystem and
// one collector per catalog on it: each collector must credit its source
// with its own catalog's bytes and files only, not with every read the
// shared connector serves.
func TestCollectorIgnoresForeignReads(t *testing.T) {
	fs := simfs.New(simfs.Device{Name: "shared"}, false)
	cats := []data.Catalog{
		{Name: "foreign-a", NumFiles: 2, RecordsPerFile: 8, MeanRecordBytes: 100, DecodeAmplification: 1},
		{Name: "foreign-b", NumFiles: 3, RecordsPerFile: 8, MeanRecordBytes: 300, DecodeAmplification: 1},
	}
	cols := make([]*Collector, len(cats))
	for i, cat := range cats {
		fs.AddCatalog(cat, 1)
		g := pipeline.NewBuilder().Named("src").Interleave(cat.Name, 1).Batch(4).MustBuild()
		col, err := NewCollector(g, Machine{Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		fs.AddObserver(col)
		cols[i] = col
	}
	for _, file := range fs.List() {
		r, err := fs.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	for i, cat := range cats {
		var want int64
		for _, spec := range cat.GenerateFileSpecs(1) {
			want += spec.TotalBytes
		}
		snap := cols[i].Snapshot(time.Second, cat.NumFiles)
		if got := snap.Nodes["src"].BytesRead; got != want {
			t.Errorf("collector of %s credits its source with %d bytes, its catalog holds %d", cat.Name, got, want)
		}
		if got := snap.ObservedFileBytes(); got != want || len(snap.Files) != cat.NumFiles {
			t.Errorf("collector of %s observed %d files, %d bytes; want its own %d files, %d bytes",
				cat.Name, len(snap.Files), got, cat.NumFiles, want)
		}
	}
}
