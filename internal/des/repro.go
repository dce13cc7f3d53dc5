package des

import (
	"fmt"
	"reflect"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// SchemaFaultRepro is the schema tag of serialized DES fault-repro
// artifacts.
const SchemaFaultRepro = "des-fault-repro/v1"

// ReproEvent is a ChaosEvent in serialized form. Times are virtual
// nanoseconds; the restart kind is its string name so artifacts stay
// readable and stable across enum reordering.
type ReproEvent struct {
	// Target is a process id, or -1 for the memory server.
	Target  int32  `json:"target"`
	AtNs    int64  `json:"at_ns"`
	DownNs  int64  `json:"down_ns"`
	Restart string `json:"restart"`
}

// ReproRetry mirrors RetryPolicy field-for-field in nanoseconds.
type ReproRetry struct {
	RTONs      int64   `json:"rto_ns,omitempty"`
	Backoff    float64 `json:"backoff,omitempty"`
	CapNs      int64   `json:"cap_ns,omitempty"`
	Jitter     float64 `json:"jitter,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
}

// FaultRepro is a self-contained reproduction of a failing chaos run:
// everything a replayer needs to re-execute the trial bit-for-bit. The
// chaos schedule is recorded as the explicit materialized event list
// (typically after ddmin shrinking), so replay does not depend on the
// plan-materialization code staying frozen — only on the engine's
// determinism contract.
type FaultRepro struct {
	Schema   string `json:"schema"`
	N        int    `json:"n"`
	Protocol string `json:"protocol"`
	// Epsilon is the per-phase agreement-failure budget (0 = default).
	Epsilon float64 `json:"epsilon,omitempty"`
	Seed    uint64  `json:"seed"`
	// Latency is the LatencyDist in its parseable "kind:mean" form.
	Latency string  `json:"latency"`
	Loss    float64 `json:"loss,omitempty"`
	// Partitions are in the parseable "from:until:frac" form.
	Partitions []string   `json:"partitions,omitempty"`
	Retry      ReproRetry `json:"retry"`
	// Chaos is the explicit (shrunk) crash schedule.
	Chaos     []ReproEvent `json:"chaos"`
	MaxEvents int64        `json:"max_events,omitempty"`
	MaxPhases int          `json:"max_phases,omitempty"`
	// Violations are the monitor firings the original run produced, for
	// the replayer to confirm byte-for-byte.
	Violations []fault.Violation `json:"violations"`
}

// BuildRepro captures a failing run: the configuration with its chaos
// plan replaced by the explicit schedule `events` (pass the materialized
// or shrunk schedule), plus the violations the run produced.
func BuildRepro(cfg Config, events []ChaosEvent, violations []fault.Violation) *FaultRepro {
	cfg = cfg.withDefaults()
	r := &FaultRepro{
		Schema:    SchemaFaultRepro,
		N:         cfg.N,
		Protocol:  cfg.Protocol,
		Epsilon:   cfg.Epsilon,
		Seed:      cfg.Seed,
		Latency:   cfg.Net.Latency.String(),
		Loss:      cfg.Net.Loss,
		Retry:     encodeRetry(cfg.Retry),
		MaxEvents: cfg.MaxEvents,
		MaxPhases: cfg.MaxPhases,
		// Marshal nil as [] — the schema promises a violations array.
		Violations: append([]fault.Violation{}, violations...),
	}
	for _, p := range cfg.Net.Partitions {
		r.Partitions = append(r.Partitions, p.String())
	}
	for _, e := range normalizeChaos(events) {
		r.Chaos = append(r.Chaos, ReproEvent{
			Target:  e.Target,
			AtNs:    e.At.Nanoseconds(),
			DownNs:  e.Down.Nanoseconds(),
			Restart: e.Restart.String(),
		})
	}
	return r
}

func encodeRetry(p RetryPolicy) ReproRetry {
	return ReproRetry{
		RTONs:      p.RTO.Nanoseconds(),
		Backoff:    p.Backoff,
		CapNs:      p.Cap.Nanoseconds(),
		Jitter:     p.Jitter,
		MaxRetries: p.MaxRetries,
	}
}

// Config reconstructs the run configuration the artifact describes.
func (r *FaultRepro) Config() (Config, error) {
	lat, err := ParseLatency(r.Latency)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		N:        r.N,
		Protocol: r.Protocol,
		Epsilon:  r.Epsilon,
		Seed:     r.Seed,
		Net: NetConfig{
			Latency: lat,
			Loss:    r.Loss,
		},
		Retry: RetryPolicy{
			RTO:        time.Duration(r.Retry.RTONs),
			Backoff:    r.Retry.Backoff,
			Cap:        time.Duration(r.Retry.CapNs),
			Jitter:     r.Retry.Jitter,
			MaxRetries: r.Retry.MaxRetries,
		},
		MaxEvents: r.MaxEvents,
		MaxPhases: r.MaxPhases,
	}
	for _, s := range r.Partitions {
		p, err := ParsePartition(s)
		if err != nil {
			return Config{}, err
		}
		cfg.Net.Partitions = append(cfg.Net.Partitions, p)
	}
	for i, e := range r.Chaos {
		kind, err := ParseRestartKind(e.Restart)
		if err != nil {
			return Config{}, fmt.Errorf("des: repro chaos event %d: %w", i, err)
		}
		cfg.Chaos.Events = append(cfg.Chaos.Events, ChaosEvent{
			Target:  e.Target,
			At:      time.Duration(e.AtNs),
			Down:    time.Duration(e.DownNs),
			Restart: kind,
		})
	}
	return cfg, nil
}

// Validate checks the artifact is well-formed enough to replay.
func (r *FaultRepro) Validate() error {
	if r.Schema != SchemaFaultRepro {
		return fmt.Errorf("des: repro schema %q, want %q", r.Schema, SchemaFaultRepro)
	}
	if len(r.Chaos) == 0 {
		return fmt.Errorf("des: repro carries no chaos schedule")
	}
	if len(r.Violations) == 0 {
		return fmt.Errorf("des: repro records no violations to reproduce")
	}
	cfg, err := r.Config()
	if err != nil {
		return err
	}
	return cfg.withDefaults().validate()
}

// Replay re-executes the recorded run and confirms it reproduces the
// recorded violations exactly. The engine's determinism contract makes
// this byte-for-byte: any divergence is an engine regression (or a
// hand-edited artifact) and is reported as an error.
func (r *FaultRepro) Replay() (Result, error) {
	if err := r.Validate(); err != nil {
		return Result{}, err
	}
	cfg, err := r.Config()
	if err != nil {
		return Result{}, err
	}
	// Weakened-semantics runs may legitimately fail to terminate (the
	// run error restates the recorded nontermination); what replay must
	// match is the violation transcript, not the error.
	res, _ := Run(cfg)
	if !reflect.DeepEqual(res.Violations, r.Violations) {
		return res, fmt.Errorf("des: replay diverged: recorded %d violations, got %d (determinism regression or stale artifact)",
			len(r.Violations), len(res.Violations))
	}
	return res, nil
}
