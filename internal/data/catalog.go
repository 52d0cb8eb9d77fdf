package data

import (
	"fmt"
	"sync"

	"plumber/internal/stats"
)

// Catalog describes the shape of a stored dataset: how many files it has,
// how large the records inside them are, and how processing changes element
// sizes downstream. All of Plumber's size and rate arithmetic consumes these
// statistics, so reproducing them reproduces the paper's cache and I/O
// results without the underlying pixels or sentences.
type Catalog struct {
	// Name identifies the dataset, e.g. "imagenet".
	Name string
	// NumFiles is the number of record files ("shards").
	NumFiles int
	// RecordsPerFile is the mean number of training examples per file.
	RecordsPerFile int
	// MeanRecordBytes is the mean stored (compressed) example size.
	MeanRecordBytes int64
	// RecordBytesStddevFrac is the relative std-dev of example sizes.
	RecordBytesStddevFrac float64
	// DecodeAmplification multiplies example size after decode (e.g. JPEG
	// decode amplifies ImageNet ~6x per the paper, 10x is the JPEG folklore).
	DecodeAmplification float64
	// FileSizeSkew, when positive, draws a per-file lognormal multiplier
	// exp(Normal(-skew²/2, skew)) on the mean record size, producing the
	// heavy-tailed (Zipf-like) file-size distributions of web-scraped
	// corpora while preserving the catalog-wide expected size. Zero keeps
	// every file at the same mean.
	FileSizeSkew float64
	// SampleFiles, when positive and below NumFiles, materializes only the
	// first SampleFiles shards: FileNames and GenerateFileSpecs cover the
	// subsample, while NumFiles keeps the declared dataset size. That is the
	// §A estimation setup — a petabyte-scale catalog can be declared, a few
	// shards traced, and the analyzer rescales observed bytes by
	// NumFiles/ObservedFiles to estimate the full dataset.
	SampleFiles int
}

// MaterializedFiles returns how many shards actually exist in storage: the
// subsample when SampleFiles is set, the full catalog otherwise.
func (c Catalog) MaterializedFiles() int {
	if c.SampleFiles > 0 && c.SampleFiles < c.NumFiles {
		return c.SampleFiles
	}
	return c.NumFiles
}

// TotalExamples returns the nominal dataset cardinality.
func (c Catalog) TotalExamples() int64 {
	return int64(c.NumFiles) * int64(c.RecordsPerFile)
}

// FileName returns the canonical shard path for index i.
func (c Catalog) FileName(i int) string {
	return fmt.Sprintf("/data/%s/%s-%05d-of-%05d.tfrecord", c.Name, c.Name, i, c.NumFiles)
}

// FileNames returns the materialized shard paths (all of them, or the
// declared subsample when SampleFiles is set). The slice is built once per
// distinct name, file count and materialized count, and every caller shares
// it: it is read-only.
func (c Catalog) FileNames() []string {
	key := fileNamesKey{c.Name, c.NumFiles, c.MaterializedFiles()}
	if names, ok := fileNames.Load(key); ok {
		return names.([]string)
	}
	out := make([]string, key.materialized)
	for i := range out {
		out[i] = c.FileName(i)
	}
	names, _ := fileNames.LoadOrStore(key, out)
	return names.([]string)
}

// FileSpec describes one generated shard.
type FileSpec struct {
	Name        string
	Records     int
	RecordSizes []int64 // per-record payload bytes, excluding framing
	TotalBytes  int64   // framed size
}

// GenerateFileSpecs deterministically draws per-file record counts and sizes
// from the catalog's distribution. The same (catalog, seed) pair always
// yields the same specs, which is what lets the subsampled size-estimation
// experiments (§5.3) be reproducible.
func (c Catalog) GenerateFileSpecs(seed uint64) []FileSpec {
	rng := stats.NewRNG(seed ^ hashString(c.Name))
	specs := make([]FileSpec, c.MaterializedFiles())
	for i := range specs {
		frng := rng.Split()
		mean := float64(c.MeanRecordBytes)
		if c.FileSizeSkew > 0 {
			mean *= frng.LogNormal(-c.FileSizeSkew*c.FileSizeSkew/2, c.FileSizeSkew)
		}
		sizes := make([]int64, c.RecordsPerFile)
		var total int64
		for j := range sizes {
			sz := frng.Normal(mean, c.RecordBytesStddevFrac*mean)
			if sz < 64 {
				sz = 64
			}
			sizes[j] = int64(sz)
			total += sizes[j] + RecordOverheadBytes
		}
		specs[i] = FileSpec{
			Name:        c.FileName(i),
			Records:     c.RecordsPerFile,
			RecordSizes: sizes,
			TotalBytes:  total,
		}
	}
	return specs
}

func hashString(s string) uint64 {
	// FNV-1a.
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// The paper's datasets. Shapes follow §4.1 (ImageNet: 1024 files, ~1200
// examples/file, ~110KB images, 148GB total), §5.3 (COCO 20GB, WMT 1.2GB and
// 1.9GB, decoded ImageNet 842GB giving ~6x amplification), and Appendix D.
var (
	// ImageNet is the ILSVRC-2012 classification dataset as packed for
	// MLPerf ResNet: 1024 TFRecord shards, ~148GB stored.
	ImageNet = Catalog{
		Name:                  "imagenet",
		NumFiles:              1024,
		RecordsPerFile:        1251, // 1.28M examples / 1024 files
		MeanRecordBytes:       115_000,
		RecordBytesStddevFrac: 0.35,
		DecodeAmplification:   5.7, // 842GB decoded / 148GB stored
	}

	// ImageNetValidation is the 50k-example validation split used by the
	// ResNetLinear end-to-end experiment (small enough to cache decoded).
	ImageNetValidation = Catalog{
		Name:                  "imagenet-val",
		NumFiles:              128,
		RecordsPerFile:        391,
		MeanRecordBytes:       115_000,
		RecordBytesStddevFrac: 0.35,
		DecodeAmplification:   5.7,
	}

	// COCO is the MSCOCO detection dataset used by MaskRCNN and
	// MultiBoxSSD: ~20GB stored.
	COCO = Catalog{
		Name:                  "coco",
		NumFiles:              256,
		RecordsPerFile:        458, // ~117k images
		MeanRecordBytes:       166_000,
		RecordBytesStddevFrac: 0.40,
		DecodeAmplification:   4.85, // 97GB materialized / 20GB stored
	}

	// WMT17 is the processed WMT English-German corpus for Transformer
	// (~1.2GB).
	WMT17 = Catalog{
		Name:                  "wmt17",
		NumFiles:              100,
		RecordsPerFile:        46_000,
		MeanRecordBytes:       245,
		RecordBytesStddevFrac: 0.55,
		DecodeAmplification:   1.6,
	}

	// WMT16 is the processed WMT 2016 corpus for GNMT (~1.9GB).
	WMT16 = Catalog{
		Name:                  "wmt16",
		NumFiles:              100,
		RecordsPerFile:        38_000,
		MeanRecordBytes:       485,
		RecordBytesStddevFrac: 0.55,
		DecodeAmplification:   1.6,
	}
)

// registered holds catalogs added at runtime (tests, benchmarks, custom
// workloads) alongside the built-ins.
var (
	registeredMu sync.RWMutex
	registered   = map[string]Catalog{}
)

// fileNames memoizes FileNames by the three values its names depend on.
// Sources start concurrently (two tenants at once), so a race to build the
// same slice keeps whichever LoadOrStore stored first.
var fileNames sync.Map // fileNamesKey → []string

type fileNamesKey struct {
	name                   string
	numFiles, materialized int
}

// RegisterCatalog makes a custom catalog resolvable by name from pipeline
// source nodes. Re-registering a name replaces the previous definition;
// built-in names cannot be shadowed.
func RegisterCatalog(c Catalog) error {
	if c.Name == "" {
		return fmt.Errorf("data: register catalog: empty name")
	}
	if _, builtin := builtinCatalogs()[c.Name]; builtin {
		return fmt.Errorf("data: register catalog: %q is a built-in", c.Name)
	}
	registeredMu.Lock()
	defer registeredMu.Unlock()
	registered[c.Name] = c
	return nil
}

func builtinCatalogs() map[string]Catalog {
	return map[string]Catalog{
		ImageNet.Name:           ImageNet,
		ImageNetValidation.Name: ImageNetValidation,
		COCO.Name:               COCO,
		WMT17.Name:              WMT17,
		WMT16.Name:              WMT16,
	}
}

// Catalogs lists every known dataset (built-in plus registered) by name.
func Catalogs() map[string]Catalog {
	out := builtinCatalogs()
	registeredMu.RLock()
	defer registeredMu.RUnlock()
	for n, c := range registered {
		out[n] = c
	}
	return out
}

// CatalogByName looks up a built-in or registered dataset.
func CatalogByName(name string) (Catalog, error) {
	c, ok := Catalogs()[name]
	if !ok {
		return Catalog{}, fmt.Errorf("data: unknown catalog %q", name)
	}
	return c, nil
}
