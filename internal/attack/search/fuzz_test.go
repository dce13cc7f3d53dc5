package search

import (
	"bytes"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/artifact"
)

// fuzzReplayable bounds the records the fuzzer fully replays: replay
// runs a whole search, so unbounded decoded configs would turn the
// fuzzer into a stress test instead of a codec check.
func fuzzReplayable(r *Record) bool {
	return r.N <= 6 && r.Budget <= 12 && r.Pop <= 6 &&
		r.EvalTrials <= 3 && r.ConfirmTrials <= 4 &&
		r.ShrinkBudget <= 8 && r.MaxSlots <= 1<<22
}

// FuzzAttackRecordReplay fuzzes the attack-record/v1 codec and replay
// path: malformed inputs must error (never panic); records that decode
// must re-encode to bytes that decode to the same record; and small
// decodable records must replay deterministically — two replays of the
// same configuration produce byte-identical artifacts.
func FuzzAttackRecordReplay(f *testing.F) {
	for _, protocol := range Protocols() {
		res, err := Search(Config{
			Protocol:      protocol,
			N:             3,
			Seed:          13,
			Budget:        8,
			Pop:           4,
			EvalTrials:    2,
			ConfirmTrials: 3,
			ShrinkBudget:  4,
		})
		if err != nil {
			f.Fatal(err)
		}
		data, err := artifact.Encode(NewRecord(res))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{"))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":"attack-record/v1","protocol":"sifter","n":4}`))
	f.Add([]byte(`{"schema":"attack-record/v1","protocol":"sifter","n":4,"budget":2,"pop":2,"eval_trials":1,"confirm_trials":1,"shrink_budget":1,"max_slots":4096,"winner":{"n":4}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := artifact.Decode[Record](data)
		if err != nil {
			return // malformed must error, not panic — reaching here is the check
		}
		enc, err := artifact.Encode(rec)
		if err != nil {
			t.Fatalf("decoded record failed to encode: %v", err)
		}
		back, err := artifact.Decode[Record](enc)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		enc2, err := artifact.Encode(back)
		if err != nil {
			t.Fatalf("round-tripped record failed to encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode/encode not byte-identical:\n%s\nvs\n%s", enc, enc2)
		}

		if !fuzzReplayable(rec) {
			return
		}
		first, err := Replay(rec, 2)
		if err != nil {
			t.Fatalf("replay of a valid record errored: %v", err)
		}
		fd, err := artifact.Encode(first)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Replay(rec, 1)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := artifact.Encode(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fd, sd) {
			t.Fatalf("replay not deterministic:\n%s\nvs\n%s", fd, sd)
		}
	})
}
