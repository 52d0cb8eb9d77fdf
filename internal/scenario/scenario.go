// Package scenario is a parameterized generator of diverse input-pipeline
// workloads: one Spec yields a registered catalog, a simulated filesystem,
// a pipeline graph, and a UDF registry, ready to trace, plan, and tune.
//
// The canonical Suite covers the workload families the paper's planner must
// generalize across (§5: vision, NLP, detection) plus the shapes a
// production fleet serves that the paper's catalogs do not isolate:
//
//   - vision: few large files, a heavy parallelizable per-byte decode —
//     CPU-bound, water-filling territory.
//   - nlp: a costly per-record parse Filter ahead of a cheap tokenizer —
//     the stage the planner must give the most cores (§5.1).
//   - tiny-files: hundreds of small shards with a handful of records each —
//     metadata/visit-ratio bound rather than CPU bound.
//   - skewed: heavy-tailed (Zipf-like) per-file sizes via the catalog's
//     FileSizeSkew, stressing size estimation from subsamples (§A).
//   - random-augment: a randomized augmentation UDF whose transitive seed
//     access makes everything downstream uncacheable (§B.1).
//   - cold-storage: a bandwidth-starved device, so the disk bound (not the
//     CPU bound) is the binding resource ceiling (§5.2).
//
// Every draw is seeded, so a (Spec, Seed) pair reproduces bit-identical
// workloads across hosts — the reusable experiment matrix the benchmark
// suite and the multi-tenant arbiter both build on.
package scenario

import (
	"fmt"
	"os"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// Canonical UDF names registered per workload; each Workload carries its own
// Registry, so names do not collide across scenarios.
const (
	DecodeUDF   = "scenario_decode"
	ParseUDF    = "scenario_parse"
	TokenizeUDF = "scenario_tokenize"
	AugmentUDF  = "scenario_augment"

	// augmentSeedHelper is the helper function AugmentUDF calls that touches
	// a random seed — the §B.1 transitive relation that vetoes caching.
	augmentSeedHelper = "scenario_random_crop"
)

// Spec parameterizes one generated workload. The zero value of most fields
// means "absent": a zero cost omits that stage, a zero Device means an
// unthrottled in-memory store.
type Spec struct {
	// Name labels the scenario; the generated catalog is registered under
	// CatalogName(), which suffixes Name with a shape hash.
	Name string `json:"name"`

	// Catalog shape.
	Files               int     `json:"files"`
	RecordsPerFile      int     `json:"records_per_file"`
	MeanRecordBytes     int64   `json:"mean_record_bytes"`
	SizeStddevFrac      float64 `json:"size_stddev_frac"`
	FileSizeSkew        float64 `json:"file_size_skew,omitempty"`
	DecodeAmplification float64 `json:"decode_amplification,omitempty"`

	// TotalFiles declares the dataset's full shard count when it exceeds
	// Files: only Files shards are materialized (and traced), and the
	// analyzer rescales observed bytes by TotalFiles/ObservedFiles (§A) —
	// how petabyte-scale catalogs are modeled without materializing them.
	TotalFiles int `json:"total_files,omitempty"`

	// Pipeline shape. BatchSize defaults to 32.
	BatchSize int `json:"batch_size"`

	// Shape selects the pipeline topology: "" (a single linear chain), "zip"
	// (an auxiliary source branch paired element-wise with the main branch —
	// image+label style), or "concat" (the auxiliary branch drained after
	// the main one — multi-corpus style). DAG shapes require the simfs
	// backend, which can serve several catalogs from one device.
	Shape string `json:"shape,omitempty"`
	// AuxFiles, AuxRecordsPerFile, and AuxMeanRecordBytes describe the
	// auxiliary branch's catalog when Shape is set; zero values derive from
	// the primary (same shard count and cardinality, 64-byte records — the
	// label-file shape).
	AuxFiles           int   `json:"aux_files,omitempty"`
	AuxRecordsPerFile  int   `json:"aux_records_per_file,omitempty"`
	AuxMeanRecordBytes int64 `json:"aux_mean_record_bytes,omitempty"`

	// DecodeCPUPerByte and DecodeCPUPerElement cost the parallelizable
	// decode Map; both zero omits the stage.
	DecodeCPUPerByte    float64 `json:"decode_cpu_per_byte,omitempty"`
	DecodeCPUPerElement float64 `json:"decode_cpu_per_element,omitempty"`
	// ParseCPUPerElement costs a Filter ahead of the decode (the NLP parse
	// bottleneck); zero omits it.
	ParseCPUPerElement float64 `json:"parse_cpu_per_element,omitempty"`
	// TokenizeCPUPerElement costs a cheap parallelizable Map after the
	// parse; zero omits it.
	TokenizeCPUPerElement float64 `json:"tokenize_cpu_per_element,omitempty"`
	// RandomAugment appends an augmentation Map whose UDF transitively
	// touches a random seed, vetoing caches at and above it.
	RandomAugment bool `json:"random_augment,omitempty"`
	// AugmentCPUPerElement costs that augmentation (default 10µs when
	// RandomAugment is set).
	AugmentCPUPerElement float64 `json:"augment_cpu_per_element,omitempty"`

	// Device models the storage the shards live on; a zero Device is an
	// unthrottled in-memory store. The device's TotalBandwidth doubles as
	// the scenario's disk-bandwidth budget hint. It serializes with the
	// rest of the spec so a recorded spec rebuilds the same workload,
	// device model included.
	Device connector.Device `json:"device"`

	// Backend selects the storage connector serving the shards: "simfs"
	// (default, in-memory simulated filesystem), "localfs" (catalog
	// materialized to real files in a temp dir — set Workload.Cleanup
	// free), or "objectstore" (the modeled S3-like store, configured from
	// Device). Content is bit-identical across backends.
	Backend string `json:"backend,omitempty"`

	// Seed drives shard content and any randomized UDFs.
	Seed uint64 `json:"seed"`
}

// Workload is one fully materialized scenario: everything a Trace/Optimize
// call (or a multi-tenant arbiter slot) needs.
type Workload struct {
	Spec    Spec
	Catalog data.Catalog
	// AuxCatalog is the auxiliary branch's catalog when Spec.Shape is set
	// (zero otherwise).
	AuxCatalog data.Catalog
	// Source is the storage connector every read goes through.
	Source   connector.Connector
	Graph    *pipeline.Graph
	Registry *udf.Registry
	// DiskBandwidth is the budget hint for bandwidth-starved scenarios: the
	// device's total bandwidth in bytes/second, 0 when unbounded.
	DiskBandwidth float64
	// Cleanup releases backend resources (the localfs temp dir); nil when
	// there is nothing to release.
	Cleanup func()
}

func (s Spec) normalized() Spec {
	if s.Files < 1 {
		s.Files = 4
	}
	if s.RecordsPerFile < 1 {
		s.RecordsPerFile = 128
	}
	if s.MeanRecordBytes < 1 {
		s.MeanRecordBytes = 1024
	}
	if s.SizeStddevFrac == 0 {
		s.SizeStddevFrac = 0.25
	}
	if s.DecodeAmplification == 0 {
		s.DecodeAmplification = 1
	}
	if s.BatchSize < 1 {
		s.BatchSize = 32
	}
	if s.RandomAugment && s.AugmentCPUPerElement == 0 {
		s.AugmentCPUPerElement = 10e-6
	}
	if s.TotalFiles <= s.Files {
		s.TotalFiles = 0
	}
	if s.Shape != "" {
		if s.AuxFiles < 1 {
			s.AuxFiles = s.Files
		}
		if s.AuxRecordsPerFile < 1 {
			s.AuxRecordsPerFile = s.RecordsPerFile
		}
		if s.AuxMeanRecordBytes < 1 {
			s.AuxMeanRecordBytes = 64
		}
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// CatalogName returns the registered catalog name for the spec:
// "scenario-<Name>-<shape hash>". The hash covers every catalog-shaping
// field, so two specs that share a Name but describe different datasets
// register distinct catalogs instead of silently overwriting each other —
// data.RegisterCatalog replaces on collision, and a tenant traced against a
// replaced catalog would rescale its dataset-size estimate from the wrong
// file count.
func (s Spec) CatalogName() string {
	s = s.normalized() // idempotent; keeps the hash stable however it's called
	shape := fmt.Sprintf("%d/%d/%d/%g/%g/%g/%d/%d/%s/%d/%d/%d",
		s.Files, s.RecordsPerFile, s.MeanRecordBytes, s.SizeStddevFrac,
		s.FileSizeSkew, s.DecodeAmplification, s.Seed,
		s.TotalFiles, s.Shape, s.AuxFiles, s.AuxRecordsPerFile, s.AuxMeanRecordBytes)
	var h uint64 = 0xcbf29ce484222325 // FNV-1a
	for i := 0; i < len(shape); i++ {
		h ^= uint64(shape[i])
		h *= 0x100000001b3
	}
	return fmt.Sprintf("scenario-%s-%08x", s.Name, uint32(h^h>>32))
}

// Build materializes the spec: it registers the catalog, loads it into a
// fresh simulated filesystem, registers the costed UDFs (with the §B.1
// randomness call graph for the augmentation), and assembles the pipeline
// graph source -> [parse] -> [decode] -> [tokenize] -> [augment] -> batch.
func Build(spec Spec) (*Workload, error) {
	s := spec.normalized()
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: spec needs a name")
	}
	cat := data.Catalog{
		Name:                  s.CatalogName(),
		NumFiles:              s.Files,
		RecordsPerFile:        s.RecordsPerFile,
		MeanRecordBytes:       s.MeanRecordBytes,
		RecordBytesStddevFrac: s.SizeStddevFrac,
		DecodeAmplification:   s.DecodeAmplification,
		FileSizeSkew:          s.FileSizeSkew,
	}
	if s.TotalFiles > s.Files {
		// Declared-size catalog: NumFiles is the claimed dataset, Files the
		// materialized (traceable) subsample the §A rescale extrapolates from.
		cat.NumFiles = s.TotalFiles
		cat.SampleFiles = s.Files
	}
	if err := data.RegisterCatalog(cat); err != nil {
		return nil, err
	}
	var auxCat data.Catalog
	if s.Shape != "" {
		auxCat = data.Catalog{
			Name:                  cat.Name + "-aux",
			NumFiles:              s.AuxFiles,
			RecordsPerFile:        s.AuxRecordsPerFile,
			MeanRecordBytes:       s.AuxMeanRecordBytes,
			RecordBytesStddevFrac: s.SizeStddevFrac,
			DecodeAmplification:   1,
		}
		if err := data.RegisterCatalog(auxCat); err != nil {
			return nil, err
		}
	}

	dev := s.Device
	if dev.Name == "" {
		dev = connector.Device{Name: "scenario-mem"}
	}

	reg := udf.NewRegistry()
	b := pipeline.NewBuilder().Interleave(cat.Name, 1)
	if s.ParseCPUPerElement > 0 {
		if err := reg.Register(udf.UDF{
			Name: ParseUDF,
			Cost: udf.Cost{CPUPerElement: s.ParseCPUPerElement, SizeFactor: 1},
		}); err != nil {
			return nil, err
		}
		b = b.Filter(ParseUDF)
	}
	if s.DecodeCPUPerByte > 0 || s.DecodeCPUPerElement > 0 {
		if err := reg.Register(udf.UDF{
			Name: DecodeUDF,
			Cost: udf.Cost{
				CPUPerByte:    s.DecodeCPUPerByte,
				CPUPerElement: s.DecodeCPUPerElement,
				SizeFactor:    s.DecodeAmplification,
			},
		}); err != nil {
			return nil, err
		}
		b = b.Map(DecodeUDF, 1)
	}
	if s.TokenizeCPUPerElement > 0 {
		if err := reg.Register(udf.UDF{
			Name: TokenizeUDF,
			Cost: udf.Cost{CPUPerElement: s.TokenizeCPUPerElement, SizeFactor: 0.5},
		}); err != nil {
			return nil, err
		}
		b = b.Map(TokenizeUDF, 1)
	}
	if s.RandomAugment {
		reg.RegisterHelper(augmentSeedHelper, nil, true)
		if err := reg.Register(udf.UDF{
			Name:  AugmentUDF,
			Cost:  udf.Cost{CPUPerElement: s.AugmentCPUPerElement, SizeFactor: 1},
			Calls: []string{augmentSeedHelper},
		}); err != nil {
			return nil, err
		}
		b = b.Map(AugmentUDF, 1)
	}
	var g *pipeline.Graph
	var err error
	switch s.Shape {
	case "":
		g, err = b.Batch(s.BatchSize).Build()
	case "zip", "concat":
		if s.Backend != "" && s.Backend != "simfs" {
			return nil, fmt.Errorf("scenario %s: shape %q requires the simfs backend, got %q", s.Name, s.Shape, s.Backend)
		}
		var main, aux *pipeline.Graph
		main, err = b.Build()
		if err != nil {
			return nil, err
		}
		// The auxiliary branch is a bare source (labels, captions); its node
		// name must not collide with the main branch's auto-named source.
		aux, err = pipeline.NewBuilder().Named("aux_source").Interleave(auxCat.Name, 1).Build()
		if err != nil {
			return nil, err
		}
		if s.Shape == "zip" {
			g, err = pipeline.ZipOf(main, aux).Batch(s.BatchSize).Build()
		} else {
			g, err = pipeline.ConcatOf(main, aux).Batch(s.BatchSize).Build()
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown shape %q (want \"\", zip, or concat)", s.Name, s.Shape)
	}
	if err != nil {
		return nil, err
	}

	w := &Workload{Spec: s, Catalog: cat, AuxCatalog: auxCat, Graph: g, Registry: reg}
	if dev.TotalBandwidth > 0 {
		w.DiskBandwidth = dev.TotalBandwidth
	}
	switch s.Backend {
	case "", "simfs":
		fs := connector.NewSimFS(dev, false)
		fs.AddCatalog(cat, s.Seed)
		if s.Shape != "" {
			fs.AddCatalog(auxCat, s.Seed)
		}
		w.Source = fs
	case "localfs":
		dir, err := os.MkdirTemp("", "plumber-localfs-")
		if err != nil {
			return nil, fmt.Errorf("scenario %s: localfs temp dir: %w", s.Name, err)
		}
		lfs := connector.NewLocalFS(dir)
		if err := lfs.MaterializeCatalog(cat, s.Seed); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("scenario %s: materialize catalog: %w", s.Name, err)
		}
		lfs.SetBandwidthHint(w.DiskBandwidth)
		w.Source = lfs
		w.Cleanup = func() { os.RemoveAll(dir) }
	case "objectstore":
		w.Source = connector.NewMemObjectStore(cat, s.Seed, objectStoreConfig(s, dev))
	default:
		return nil, fmt.Errorf("scenario %s: unknown backend %q (want simfs, localfs, or objectstore)", s.Name, s.Backend)
	}
	return w, nil
}

// objectStoreConfig derives the modeled store from the spec's device:
// request latency from the device's read latency (defaulting to 1ms with a
// log-normal tail), per-stream and aggregate bandwidth straight from the
// device, and a short cold-start ramp so the first reads pay the cold
// frontend.
func objectStoreConfig(s Spec, dev connector.Device) connector.ObjectStoreConfig {
	lat := dev.ReadLatency
	if lat <= 0 {
		lat = time.Millisecond
	}
	return connector.ObjectStoreConfig{
		Name:               dev.Name,
		RequestLatency:     lat,
		TailSigma:          0.5,
		PerStreamBandwidth: dev.PerStreamBandwidth,
		TotalBandwidth:     dev.TotalBandwidth,
		ColdStartSeconds:   0.5,
		ColdStartFactor:    2,
		Seed:               s.Seed,
	}
}

// Suite returns the canonical scenario matrix. quick shrinks every catalog
// for CI smoke runs while preserving each scenario's defining shape.
func Suite(quick bool) []Spec {
	scale := 1
	if quick {
		scale = 4
	}
	const mb = 1e6
	return []Spec{
		{
			// Few large files, decode dominates and parallelizes.
			Name:                "vision",
			Files:               6,
			RecordsPerFile:      256 / scale,
			MeanRecordBytes:     8 << 10,
			DecodeAmplification: 4,
			DecodeCPUPerByte:    5e-9, // ~40µs per 8KB record
			BatchSize:           16,
		},
		{
			// The parse Filter caps the pipeline until it is given cores.
			Name:                  "nlp",
			Files:                 4,
			RecordsPerFile:        2048 / scale,
			MeanRecordBytes:       256,
			ParseCPUPerElement:    20e-6,
			TokenizeCPUPerElement: 5e-6,
			BatchSize:             64,
		},
		{
			// Hundreds of tiny shards, a handful of records each: per-file
			// overhead, not CPU, is the cost.
			Name:                "tiny-files",
			Files:               256 / scale,
			RecordsPerFile:      4,
			MeanRecordBytes:     256,
			DecodeCPUPerElement: 2e-6,
			BatchSize:           32,
		},
		{
			// Heavy-tailed per-file sizes stress subsampled size estimation
			// and make water-filling targets noisy.
			Name:                "skewed",
			Files:               16,
			RecordsPerFile:      256 / scale,
			MeanRecordBytes:     2 << 10,
			FileSizeSkew:        0.9,
			DecodeCPUPerByte:    8e-9,
			DecodeCPUPerElement: 5e-6,
			BatchSize:           16,
		},
		{
			// Randomized augmentation: nothing at or above it may be cached.
			Name:                 "random-augment",
			Files:                6,
			RecordsPerFile:       256 / scale,
			MeanRecordBytes:      4 << 10,
			DecodeCPUPerByte:     4e-9,
			RandomAugment:        true,
			AugmentCPUPerElement: 15e-6,
			BatchSize:            16,
		},
		{
			// Cold storage: an 8MB/s device makes the disk bound the binding
			// ceiling well before the CPU bound.
			Name:                coldStorageName,
			Files:               8,
			RecordsPerFile:      256 / scale,
			MeanRecordBytes:     8 << 10,
			DecodeCPUPerElement: 4e-6,
			Device: connector.Device{
				Name:               "scenario-cold",
				TotalBandwidth:     8 * mb,
				PerStreamBandwidth: 2 * mb,
			},
			BatchSize: 16,
		},
	}
}

const coldStorageName = "cold-storage"

// MixedBackendMix is the two-tenant mixed-backend scenario: one tenant
// reads real files from local disk, the other reads the modeled cold
// object store. Arbitrated together, the object-store tenant's bandwidth
// hint caps its disk share and the freed bandwidth water-fills to the
// local tenant — the heterogeneous-storage case a weight-proportional
// split gets wrong.
func MixedBackendMix(quick bool) []Spec {
	scale := 1
	if quick {
		scale = 4
	}
	const mb = 1e6
	return []Spec{
		{
			// The vision shape on real local files.
			Name:                "local-vision",
			Backend:             "localfs",
			Files:               6,
			RecordsPerFile:      256 / scale,
			MeanRecordBytes:     8 << 10,
			DecodeAmplification: 4,
			DecodeCPUPerByte:    5e-9,
			BatchSize:           16,
			Device: connector.Device{
				Name:           "mixed-local",
				TotalBandwidth: 400 * mb,
			},
		},
		{
			// The cold-storage shape behind the modeled object store: low
			// aggregate bandwidth, per-request latency with a log-normal
			// tail, and a cold-start ramp.
			Name:                "cold-object",
			Backend:             "objectstore",
			Files:               8,
			RecordsPerFile:      256 / scale,
			MeanRecordBytes:     8 << 10,
			DecodeCPUPerElement: 4e-6,
			BatchSize:           16,
			Device: connector.Device{
				Name:               "mixed-object",
				TotalBandwidth:     12 * mb,
				PerStreamBandwidth: 4 * mb,
				ReadLatency:        500 * time.Microsecond,
			},
		},
	}
}
