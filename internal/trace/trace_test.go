package trace

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
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
		// Examples into the batch: a warm-up, single examples, a lump of a
		// chunk, and two samples at one instant.
		Progress: Progress{
			{At: 3021043, N: 0}, {At: 4022587, N: 1}, {At: 5023001, N: 2},
			{At: 5101774, N: 66}, {At: 5101774, N: 67}, {At: 6133890, N: 68},
		},
	}
}

// TestSnapshotRoundTrip marshals a fully populated snapshot — including the
// Files/TotalFiles subsample fields the size estimator rescales by, and
// progress streams that stress the delta codec — and checks the whole value
// survives the JSON round trip, the stream sample for sample.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, progress := range []Progress{
		nil, // testSnapshot's
		{},  // an empty stream
		{{At: 0, N: 0}, {At: 1, N: 1}, {At: 999, N: 64}},                                                        // a first sample at 0 ns
		{{At: time.Millisecond, N: 7}, {At: 2 * time.Millisecond, N: 7 + 1<<33}, {At: time.Hour, N: 1<<62 + 5}}, // a count jump past 2^32
	} {
		snap := testSnapshot(t)
		if progress != nil {
			snap.Progress = progress
		}
		b, err := snap.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Progress, snap.Progress) {
			t.Fatalf("progress mismatch:\n got %v\nwant %v", got.Progress, snap.Progress)
		}
		got.Progress = snap.Progress // an empty stream reads back as none
		// Every field, so every accessor (ChainStats, ObservedFileBytes, …)
		// reads the decoded copy as it reads the original.
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, snap)
		}
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

// TestUnmarshalSnapshotRejectsGarbage: what a snapshot file can say that no
// tracer writes is rejected on reading, before the analysis dereferences it.
func TestUnmarshalSnapshotRejectsGarbage(t *testing.T) {
	g, _ := testSnapshot(t).Graph.Marshal() // a built graph always marshals
	with := func(rest string) string { return fmt.Sprintf(`{"graph": %s, %s}`, g, rest) }
	for _, garbage := range []string{
		`{"graph": 42`,
		`{}`,
		with(`"nodes": {"interleave_1": null, "map_1": null, "batch_1": null}`),
		with(`"progress": [-5, 1]`),                                   // before the trace began
		with(`"progress": [5, -1]`),                                   // a negative count
		with(`"progress": [5, 1, -2, 1]`),                             // time goes backwards
		with(`"progress": [5, 3, 1, -1]`),                             // the count goes backwards
		with(`"run": {"trace_samples": 3}, "progress": [5, 1, 1, 1]`), // two samples, not three
		with(`"run": {"trace_samples": 2}`),                           // no stream
	} {
		if _, err := UnmarshalSnapshot([]byte(garbage)); err == nil {
			t.Errorf("expected error on malformed snapshot JSON %s", strings.ReplaceAll(garbage, string(g), "<graph>"))
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
