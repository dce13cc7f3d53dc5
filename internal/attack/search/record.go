package search

import "fmt"

// SchemaRecord is the schema tag of serialized attack-search artifacts.
const SchemaRecord = "attack-record/v1"

// Record is a committed, replayable attack-search result: the full
// search configuration plus the winning genome and every score the run
// produced. Because a search is a pure function of its configuration,
// replaying the record (Replay) regenerates the identical winner and
// scores, and re-encoding yields byte-identical JSON — which is how CI
// checks committed artifacts have not rotted.
type Record struct {
	Schema string `json:"schema"`
	// Search configuration (see Config; all fields post-defaulting, so a
	// record is self-contained even if the defaults later change).
	Protocol      string  `json:"protocol"`
	N             int     `json:"n"`
	Seed          uint64  `json:"seed"`
	Budget        int     `json:"budget"`
	Pop           int     `json:"pop"`
	EvalTrials    int     `json:"eval_trials"`
	ConfirmTrials int     `json:"confirm_trials"`
	RestartRate   float64 `json:"restart_rate"`
	Faults        bool    `json:"faults,omitempty"`
	ShrinkBudget  int     `json:"shrink_budget"`
	MaxSlots      int64   `json:"max_slots"`

	// Evaluations is the total candidate evaluations the run spent.
	Evaluations int `json:"evaluations"`
	// Winner is the shrunk best genome.
	Winner *Genome `json:"winner"`
	// Score is the winner's score on the search's evaluation seeds;
	// Confirm re-scores it on fresh seeds; WhiteBox scores the coin-aware
	// graft on the same fresh seeds; Baselines score round-robin and
	// uniform-random schedules there too.
	Score     Score            `json:"score"`
	Confirm   Score            `json:"confirm"`
	WhiteBox  Score            `json:"whitebox"`
	Baselines map[string]Score `json:"baselines,omitempty"`
}

// NewRecord captures a completed search as an artifact.
func NewRecord(res *Result) *Record {
	c := res.Config
	return &Record{
		Schema:        SchemaRecord,
		Protocol:      c.Protocol,
		N:             c.N,
		Seed:          c.Seed,
		Budget:        c.Budget,
		Pop:           c.Pop,
		EvalTrials:    c.EvalTrials,
		ConfirmTrials: c.ConfirmTrials,
		RestartRate:   c.RestartRate,
		Faults:        c.Faults,
		ShrinkBudget:  c.ShrinkBudget,
		MaxSlots:      c.MaxSlots,
		Evaluations:   res.Evaluations,
		Winner:        res.Winner,
		Score:         res.Score,
		Confirm:       res.Confirm,
		WhiteBox:      res.WhiteBox,
		Baselines:     res.Baselines,
	}
}

// SearchConfig reconstructs the search configuration the record was
// produced with. Parallelism is left zero (it never affects results).
func (r *Record) SearchConfig() Config {
	return Config{
		Protocol:      r.Protocol,
		N:             r.N,
		Seed:          r.Seed,
		Budget:        r.Budget,
		Pop:           r.Pop,
		EvalTrials:    r.EvalTrials,
		ConfirmTrials: r.ConfirmTrials,
		RestartRate:   r.RestartRate,
		Faults:        r.Faults,
		ShrinkBudget:  r.ShrinkBudget,
		MaxSlots:      r.MaxSlots,
	}
}

// Validate checks the artifact is well-formed enough to replay.
func (r *Record) Validate() error {
	if r.Schema != SchemaRecord {
		return fmt.Errorf("search: record schema %q, want %q", r.Schema, SchemaRecord)
	}
	if _, err := protocolByName(r.Protocol); err != nil {
		return err
	}
	cfg := r.SearchConfig()
	if err := cfg.validate(); err != nil {
		return err
	}
	if r.Budget <= 0 || r.Pop <= 0 || r.EvalTrials <= 0 || r.ConfirmTrials <= 0 {
		return fmt.Errorf("search: record has non-positive search parameters")
	}
	if r.MaxSlots <= 0 {
		return fmt.Errorf("search: record has non-positive slot budget %d", r.MaxSlots)
	}
	if r.Winner == nil {
		return fmt.Errorf("search: record carries no winner genome")
	}
	if r.Winner.N != r.N {
		return fmt.Errorf("search: record is for %d processes but its winner targets %d", r.N, r.Winner.N)
	}
	if r.Winner.Fault != nil && !r.Faults {
		return fmt.Errorf("search: record winner carries a fault schedule but the search ran fault-free")
	}
	return r.Winner.Validate()
}

// Replay re-runs the record's search from its configuration and returns
// the freshly produced record. A search is a pure function of its
// configuration, so the result must match the original field for field;
// callers verify by comparing artifact.Encode outputs byte for byte.
// parallelism only changes wall-clock time (0 = NumCPU).
func Replay(r *Record, parallelism int) (*Record, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	cfg := r.SearchConfig()
	cfg.Parallelism = parallelism
	res, err := Search(cfg)
	if err != nil {
		return nil, err
	}
	return NewRecord(res), nil
}
