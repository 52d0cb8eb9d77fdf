package main

import (
	"fmt"
	"runtime"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/simfs"
	"plumber/internal/udf"
)

// decodeUDF is the one costed Map every workload's untuned graph carries.
const decodeUDF = "bench_decode"

// tenantSpec is the generated input of one pipeline: catalog shape, modeled
// decode cost, batch size, epochs, and the device the shards live on. Every
// size is fixed by the workload, never by the seed — the seed only chooses
// the record contents (and, within sizeStddevFrac, their lengths), so two
// seeds measure the same amount of work.
type tenantSpec struct {
	files          int
	recordsPerFile int
	recordBytes    int64
	amplification  float64

	// decodeCPUPerByte and decodeCPUPerElement are the modeled cost of the
	// decode Map in CPU-seconds, accounted to the trace at WorkScale 1.
	decodeCPUPerByte    float64
	decodeCPUPerElement float64
	// spin burns the modeled CPU for real, so wall time follows the cost
	// model; false only accounts it, and the map stage costs its plumbing.
	spin bool

	batch int
	// epochs is how many times the job drains the tuned program: a
	// Repeat(epochs) wrapped above its root, so a planned cache serves
	// epochs 2..E. innerEpochs, when above 1, puts a Repeat below the Batch
	// of the untuned graph itself and the job drains that once; the retune
	// workload needs the Batch at the root, where the engine publishes
	// counters every few minibatches for the doctor to read (a Repeat at
	// the root publishes once per 128).
	epochs      int
	innerEpochs int

	// device, when its TotalBandwidth is set, throttles reads in real time.
	device simfs.Device
}

// Record sizes sit just under a power of two, so that the ±0.4% never
// straddles a buffer-pool size class: at exactly 8 KiB, a seed-dependent
// half of the records would take 16 KiB buffers.
//
// sizeStddevFrac keeps record lengths within a fraction of a percent of the
// mean: the catalog's default (0.25) would move total bytes — and with a
// per-byte decode cost, total work — by ±0.5% from seed to seed.
const sizeStddevFrac = 0.004

// kind selects the job a workload runs.
type kind int

const (
	kindSingle    kind = iota // Optimize -> drain E epochs
	kindRetune                // same, with a mid-run bandwidth change and a stepped doctor
	kindTwoTenant             // ArbitrateAll -> RunConcurrent
)

// workloadDef is one row of the workload table.
type workloadDef struct {
	name string
	why  string
	kind kind
	// tenants holds one spec for single-pipeline workloads and two for
	// two-tenant; weights pairs with it.
	tenants []tenantSpec
	weights []float64
	// singleP pins the process to one P (hotpath): wall time is then CPU
	// time and the hypervisor's cross-core scheduling drops out.
	singleP bool
	// memoryBytes is the cache budget handed to the planner.
	memoryBytes int64
	// rampTo is the delivered bandwidth (bytes/s) the retune workload
	// switches to at the epoch-1/epoch-2 boundary.
	rampTo float64
}

const mb = 1e6

// workloadDefs is the benchmark's workload table; BENCHMARK.json repeats
// the names and reasons and a test keeps the two equal.
var workloadDefs = []workloadDef{
	{
		name: "hotpath",
		why:  "in-memory, no modeled CPU, one P: engine handoff, tfrecord decode and tracing do all the work",
		kind: kindSingle,
		tenants: []tenantSpec{{
			files: 8, recordsPerFile: 8192, recordBytes: 1000, amplification: 1,
			decodeCPUPerElement: 1e-9, // accounted, never burned: it only gives the planner a finite model
			batch:               64, epochs: 16,
		}},
		singleP:     true,
		memoryBytes: 8 << 20, // nothing fits: a cache would turn epochs 2..E into a memory copy
	},
	{
		name: "vision",
		why:  "1 ms/record modeled decode with a cache that fits: the planner and udf cost decide, engine plumbing is noise",
		kind: kindSingle,
		tenants: []tenantSpec{{
			files: 6, recordsPerFile: 80, recordBytes: 8000, amplification: 4,
			decodeCPUPerByte: 1.25e-7, spin: true,
			batch: 16, epochs: 4,
		}},
		memoryBytes: 256 << 20,
	},
	{
		name: "cold-storage",
		why:  "throttled 8 MB/s device and no cache that fits: every epoch is disk-bound, engine and cache are bypassed",
		kind: kindSingle,
		tenants: []tenantSpec{{
			// The decode doubles the record (a light decompression): one
			// buffer per example, so allocs_per_example is a per-example
			// count here too and not the engine's fixed 22 objects / 768.
			files: 8, recordsPerFile: 48, recordBytes: 8000, amplification: 2,
			decodeCPUPerElement: 4e-6, spin: true,
			batch: 16, epochs: 3,
			device: simfs.Device{Name: "bench-cold", TotalBandwidth: 8 * mb, PerStreamBandwidth: 2 * mb},
		}},
		memoryBytes: 1 << 20,
	},
	{
		name: "retune",
		why:  "bandwidth halves mid-run; a stepped doctor re-plans and hot-applies: quiesce, rebuild and resume land in job_s",
		kind: kindRetune,
		tenants: []tenantSpec{{
			files: 8, recordsPerFile: 256, recordBytes: 2000, amplification: 1,
			decodeCPUPerElement: 20e-6, spin: true,
			batch: 16, epochs: 1, innerEpochs: 2,
			device: simfs.Device{Name: "bench-retune", TotalBandwidth: 16 * mb, PerStreamBandwidth: 4 * mb},
		}},
		memoryBytes: 1 << 20,
		rampTo:      8 * mb,
	},
	{
		name: "two-tenant",
		why:  "two arbitrated tenants on one shared worker pool: pool admission and host arbitration, the contended path",
		kind: kindTwoTenant,
		tenants: []tenantSpec{
			{ // vision-shaped, CPU-heavy
				files: 4, recordsPerFile: 128, recordBytes: 8000, amplification: 4,
				decodeCPUPerByte: 1.25e-7, spin: true,
				batch: 16, epochs: 1,
			},
			{ // tiny-files-shaped, metadata-bound
				files: 1024, recordsPerFile: 4, recordBytes: 250, amplification: 1,
				decodeCPUPerElement: 100e-6, spin: true,
				batch: 32, epochs: 1,
			},
		},
		weights:     []float64{3, 1},
		memoryBytes: 256 << 20,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quickened shrinks every catalog by 8 (tests and smoke runs), keeping each
// workload's shape. The retune catalog stays whole: its job is paced by the
// throttled device, and a smaller one would fit inside the token bucket's
// initial burst, where a bandwidth change is invisible.
func (d workloadDef) quickened() workloadDef {
	if d.kind == kindRetune {
		return d
	}
	out := d
	out.tenants = append([]tenantSpec(nil), d.tenants...)
	for i := range out.tenants {
		t := &out.tenants[i]
		if t.recordsPerFile >= 32 {
			t.recordsPerFile /= 8
		} else {
			t.files /= 8
		}
	}
	return out
}

// cores is the core budget every workload plans under: min(nproc, 4), or 1
// for the single-P workload.
func (d workloadDef) cores() int {
	if d.singleP {
		return 1
	}
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// tenant is one materialized pipeline input: the generated catalog served
// by the connector under test, an unthrottled twin serving the same bytes,
// the untuned graph, and the reference checksum of one epoch.
type tenant struct {
	spec    tenantSpec
	cat     data.Catalog
	fs      *simfs.FS
	src     connector.Connector
	twin    connector.Connector
	reg     *udf.Registry
	untuned *pipeline.Graph
	ref     checksum
}

// instance is one set-up of a workload for one seed.
type instance struct {
	def     workloadDef
	seed    uint64
	tenants []*tenant
	budget  plumber.Budget
}

// buildTenant generates one tenant's inputs from the seed: it registers the
// catalog, loads it into the filesystem under test and into an unthrottled
// twin, materializes every shard (content generation is lazy), and builds
// the untuned graph — every knob 1, no cache, no prefetch.
func buildTenant(name string, spec tenantSpec, seed uint64) (*tenant, error) {
	cat := data.Catalog{
		Name:                  name,
		NumFiles:              spec.files,
		RecordsPerFile:        spec.recordsPerFile,
		MeanRecordBytes:       spec.recordBytes,
		RecordBytesStddevFrac: sizeStddevFrac,
		DecodeAmplification:   spec.amplification,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		return nil, err
	}
	t := &tenant{spec: spec, cat: cat}
	throttled := spec.device.TotalBandwidth > 0
	dev := spec.device
	if !throttled {
		dev = simfs.Device{Name: name + "-mem"}
	}
	t.fs = simfs.New(dev, throttled)
	t.fs.AddCatalog(cat, seed)
	t.src = connector.FromSimFS(t.fs)
	t.twin = t.src
	if throttled {
		twin := simfs.New(simfs.Device{Name: name + "-twin"}, false)
		twin.AddCatalog(cat, seed)
		t.twin = connector.FromSimFS(twin)
	}
	if err := materialize(t.src); err != nil {
		return nil, err
	}
	if throttled {
		if err := materialize(t.twin); err != nil {
			return nil, err
		}
	}

	t.reg = udf.NewRegistry()
	if err := t.reg.Register(udf.UDF{Name: decodeUDF, Cost: udf.Cost{
		CPUPerByte:    spec.decodeCPUPerByte,
		CPUPerElement: spec.decodeCPUPerElement,
		SizeFactor:    spec.amplification,
	}}); err != nil {
		return nil, err
	}
	b := pipeline.NewBuilder().
		Named("src").Interleave(cat.Name, 1).
		Named("decode").Map(decodeUDF, 1)
	if spec.innerEpochs > 1 {
		b = b.Named("epochs").Repeat(int64(spec.innerEpochs))
	}
	g, err := b.Named("batch").Batch(spec.batch).Build()
	if err != nil {
		return nil, err
	}
	t.untuned = g
	return t, nil
}

// materialize generates every shard's content, which the filesystem does
// lazily on first Open. Nothing is read, so no bandwidth is spent.
func materialize(c connector.Connector) error {
	for _, path := range c.List() {
		r, err := c.Open(path)
		if err != nil {
			return err
		}
		r.Close()
	}
	return nil
}

// fillCount is the number of minibatches the first pass over the dataset
// delivers.
func (t *tenant) fillCount() int64 {
	if t.spec.innerEpochs > 1 {
		return t.ref.Minibatches / int64(t.spec.innerEpochs)
	}
	return t.ref.Minibatches
}

// options is the façade configuration the job optimizes and traces under.
func (t *tenant) options(seed uint64) plumber.Options {
	return plumber.Options{
		Source:    t.src,
		UDFs:      t.reg,
		Seed:      seed,
		WorkScale: 1,
		Spin:      t.spec.spin,
	}
}

// setUp builds one instance of the workload for the seed and computes every
// tenant's reference checksum. It is the unit setup_s times.
func setUp(def workloadDef, seed uint64) (*instance, error) {
	in := &instance{def: def, seed: seed}
	in.budget = plumber.Budget{Cores: def.cores(), MemoryBytes: def.memoryBytes}
	for i, spec := range def.tenants {
		name := fmt.Sprintf("bench-%s-%d-%d", def.name, i, seed)
		t, err := buildTenant(name, spec, seed)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", def.name, err)
		}
		if t.ref, err = referenceChecksum(t, seed); err != nil {
			return nil, fmt.Errorf("set up %s: reference drain: %w", def.name, err)
		}
		in.tenants = append(in.tenants, t)
		if bw := spec.device.TotalBandwidth; bw > 0 {
			in.budget.DiskBandwidth = bw
		}
	}
	return in, nil
}
