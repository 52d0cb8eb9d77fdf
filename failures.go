package plumber

import (
	"plumber/internal/connector"
	"plumber/internal/engine"
	"plumber/internal/host"
)

// Robustness types, re-exported so fault-injection experiments and
// failure-isolated runs can stay entirely within the façade.
//
// A FaultPlan installed on a storage connector (Connector.SetFaults) injects
// deterministic, seeded faults at the read path: error rates, scripted
// first-read failures, latency spikes, mid-read stalls, and bandwidth
// ramps. Retry is the engine's absorption policy for those (and any other
// transient) faults — wire it through RunOptions.Retry for concurrent runs
// or Options-level tuning. StageError is the typed error a pipeline
// surfaces once the policy is exhausted, and ErrorStats the pipeline-wide
// retry/error/gave-up accounting. TenantStatus and ReclaimEvent describe
// failure isolation in RunConcurrent: a failed or stalled tenant is
// reported, evicted from the shared pool, and its share re-water-filled
// across the survivors.
type (
	FaultPlan    = connector.FaultPlan
	FaultRule    = connector.FaultRule
	FaultError   = connector.FaultError
	FaultStats   = connector.FaultStats
	Retry        = engine.Retry
	StageError   = engine.StageError
	ErrorStats   = engine.ErrorStats
	TenantStatus = host.TenantStatus
	ReclaimEvent = host.ReclaimEvent
)

// Tenant outcome statuses reported by Arbiter.RunConcurrent.
const (
	StatusOK       = host.StatusOK
	StatusDegraded = host.StatusDegraded
	StatusStalled  = host.StatusStalled
	StatusFailed   = host.StatusFailed
)
