package fault

import "fmt"

// SchemaRepro is the schema tag of serialized repro artifacts.
const SchemaRepro = "conciliator-fault-repro/v1"

// Repro is a minimal, self-contained reproduction of a safety violation
// or non-termination: everything a replayer needs to re-execute the
// failing trial bit-for-bit. A controlled run is a pure function of
// (workload, schedule source, algorithm seed, fault schedule), so no
// recorded slots are necessary — the four seeds-and-schedules fields
// regenerate the identical execution.
type Repro struct {
	Schema string `json:"schema"`
	// N is the process count.
	N int `json:"n"`
	// Sched names the schedule source kind (sched.Kind.String()).
	Sched string `json:"sched"`
	// SchedSeed seeds the schedule source.
	SchedSeed uint64 `json:"sched_seed"`
	// AlgSeed seeds the per-process algorithm randomness.
	AlgSeed uint64 `json:"alg_seed"`
	// MaxSlots is the run's slot budget (0 = simulator default).
	MaxSlots int64 `json:"max_slots,omitempty"`
	// Workload names the trial body; the experiment package's replayer
	// resolves it.
	Workload string `json:"workload"`
	// Fault is the (typically shrunk) fault schedule.
	Fault *Schedule `json:"fault"`
	// Violations are the monitor firings the original run produced, for
	// the replayer to confirm.
	Violations []Violation `json:"violations"`

	// SavedPath is where the fault sweep wrote the artifact (empty when
	// it wrote none); informational only, never serialized.
	SavedPath string `json:"-"`
}

// Validate checks the artifact is well-formed enough to replay.
func (r *Repro) Validate() error {
	if r.Schema != SchemaRepro {
		return fmt.Errorf("fault: repro schema %q, want %q", r.Schema, SchemaRepro)
	}
	if r.N <= 0 {
		return fmt.Errorf("fault: repro has non-positive process count %d", r.N)
	}
	if r.Workload == "" {
		return fmt.Errorf("fault: repro names no workload")
	}
	if r.Fault == nil {
		return fmt.Errorf("fault: repro carries no fault schedule")
	}
	if r.Fault.N() != r.N {
		return fmt.Errorf("fault: repro is for %d processes but its schedule targets %d", r.N, r.Fault.N())
	}
	if len(r.Violations) == 0 {
		return fmt.Errorf("fault: repro records no violations to reproduce")
	}
	return r.Fault.Validate()
}
