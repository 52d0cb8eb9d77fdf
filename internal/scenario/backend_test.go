package scenario_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"plumber"
	"plumber/internal/engine"
	"plumber/internal/scenario"
)

// TestBuildBackends builds the same spec on every backend and traces each
// to EOF: the backend switch must be behavior-preserving at the
// minibatch-count level, and each workload must report the right connector.
// Each backend then drains again under a 2 % transient read-error plan with
// the engine's retry policy on: the retries absorb every fault, so the same
// minibatches arrive and no error reaches the caller. (The mixed-backend
// disk split is TestDiskSplitWaterFillsOnConnectorHints, in internal/host.)
func TestBuildBackends(t *testing.T) {
	base := scenario.Spec{
		Name:                "backend-probe",
		Files:               3,
		RecordsPerFile:      64,
		MeanRecordBytes:     1 << 10,
		DecodeAmplification: 1,
		DecodeCPUPerByte:    1e-9,
		BatchSize:           8,
	}
	for _, backend := range []string{"", "simfs", "localfs", "objectstore"} {
		backend := backend
		name := backend
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			spec := base
			spec.Backend = backend
			w, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if w.Cleanup != nil {
				t.Cleanup(w.Cleanup)
			}
			if w.Source == nil {
				t.Fatal("workload carries no connector")
			}
			wantBackend := backend
			if wantBackend == "" {
				wantBackend = "simfs"
			}
			if got := w.Source.Backend(); got != wantBackend {
				t.Fatalf("Source.Backend() = %q, want %q", got, wantBackend)
			}
			snap, err := plumber.Trace(w.Graph, plumber.Options{
				Source: w.Source, UDFs: w.Registry, Seed: w.Spec.Seed, WorkScale: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			root, err := snap.RootStats()
			if err != nil {
				t.Fatal(err)
			}
			wantBatches := w.Catalog.TotalExamples() / int64(w.Spec.BatchSize)
			if root.ElementsProduced < wantBatches {
				t.Fatalf("drained %d minibatches, want >= %d (full pass)", root.ElementsProduced, wantBatches)
			}

			w.Source.SetFaults(&plumber.FaultPlan{Seed: 29, Rules: []plumber.FaultRule{{Name: "flaky-reads", ErrorRate: 0.02}}})
			p, err := engine.New(w.Graph, engine.Options{
				FS: w.Source, UDFs: w.Registry, Seed: w.Spec.Seed, WorkScale: 1,
				Retry: engine.Retry{MaxAttempts: 4, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			faulted, _, err := p.Drain(0)
			es := p.ErrorStats()
			p.Close()
			if err != nil || es.Errors != 0 {
				t.Fatalf("faulted drain: %d errors reached the caller, last %v", es.Errors, err)
			}
			if faulted != root.ElementsProduced {
				t.Fatalf("faulted drain delivered %d minibatches, the clean one %d", faulted, root.ElementsProduced)
			}
			if es.Retries == 0 {
				t.Fatalf("no retries under a 2%% error rate (%+v injected)", w.Source.FaultStats())
			}
		})
	}

	t.Run("unknown", func(t *testing.T) {
		spec := base
		spec.Backend = "bogus"
		if _, err := scenario.Build(spec); err == nil {
			t.Fatal("unknown backend built successfully, want error")
		}
	})
}

// TestBuildLocalFSMaterializesRealFiles confirms the localfs workload's
// shards live on disk under the temp root and vanish with Cleanup.
func TestBuildLocalFSMaterializesRealFiles(t *testing.T) {
	spec := scenario.Spec{
		Name:            "backend-localfs-files",
		Backend:         "localfs",
		Files:           2,
		RecordsPerFile:  16,
		MeanRecordBytes: 256,
		BatchSize:       4,
	}
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	paths := w.Source.List()
	if len(paths) != 2 {
		t.Fatalf("List() returned %d shards, want 2", len(paths))
	}
	for _, p := range paths {
		size, err := w.Source.Stat(p)
		if err != nil {
			t.Fatalf("Stat(%s): %v", p, err)
		}
		if size <= 0 {
			t.Fatalf("Stat(%s) = %d, want > 0", p, size)
		}
	}
	if w.Cleanup == nil {
		t.Fatal("localfs workload has no Cleanup")
	}
	w.Cleanup()
	// Stat serves the in-memory index, but Open must hit the real disk:
	// after Cleanup the underlying files are gone.
	for _, p := range paths {
		if r, err := w.Source.Open(p); err == nil {
			r.Close()
			t.Fatalf("Open(%s) still succeeds after Cleanup removed the files", p)
		} else if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Open(%s) after Cleanup: %v, want a does-not-exist error", p, err)
		}
	}
}

// TestMixedBackendMixBuilds pins the two-tenant mixed-backend scenario:
// a local-FS tenant and an object-store tenant, the latter advertising the
// cold store's bandwidth hint for the arbiter's disk water-filling.
func TestMixedBackendMixBuilds(t *testing.T) {
	specs := scenario.MixedBackendMix(true)
	if len(specs) != 2 {
		t.Fatalf("MixedBackendMix returned %d specs, want 2", len(specs))
	}
	wantBackends := map[string]string{
		"local-vision": "localfs",
		"cold-object":  "objectstore",
	}
	for _, s := range specs {
		w, err := scenario.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if w.Cleanup != nil {
			t.Cleanup(w.Cleanup)
		}
		if got := w.Source.Backend(); got != wantBackends[s.Name] {
			t.Fatalf("%s: backend %q, want %q", s.Name, got, wantBackends[s.Name])
		}
		if s.Name == "cold-object" {
			if hint := w.Source.BandwidthHint(); hint != 12e6 {
				t.Fatalf("cold-object bandwidth hint = %.0f, want 12e6", hint)
			}
		}
	}
}
