package search

import (
	"bytes"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/artifact"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// smallConfig is a search cheap enough to run several times per test.
func smallConfig(protocol string) Config {
	return Config{
		Protocol:      protocol,
		N:             4,
		Seed:          7,
		Budget:        24,
		Pop:           6,
		EvalTrials:    3,
		ConfirmTrials: 6,
		ShrinkBudget:  16,
	}
}

func mustSearch(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func encodeRecord(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := artifact.Encode(NewRecord(res))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSearchDeterministicAcrossParallelism pins the central replayability
// property: a search is a pure function of its configuration, so the
// encoded record is byte-identical for any worker count, with and
// without fault-schedule components in the genome space.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		cfg := smallConfig("sifter")
		cfg.Faults = faults
		cfg.Parallelism = 1
		want := encodeRecord(t, mustSearch(t, cfg))
		for _, workers := range []int{3, 8} {
			cfg.Parallelism = workers
			got := encodeRecord(t, mustSearch(t, cfg))
			if !bytes.Equal(got, want) {
				t.Errorf("faults=%v: record differs between 1 and %d workers:\n%s\nvs\n%s",
					faults, workers, want, got)
			}
		}
	}
}

// TestSearchSeedSensitivity sanity-checks the search is actually driven
// by its seed: different seeds explore different candidates.
func TestSearchSeedSensitivity(t *testing.T) {
	a := mustSearch(t, smallConfig("sifter"))
	cfg := smallConfig("sifter")
	cfg.Seed = 8
	b := mustSearch(t, cfg)
	da, db := encodeRecord(t, a), encodeRecord(t, b)
	if bytes.Equal(da, db) {
		t.Fatal("seeds 7 and 8 produced identical records")
	}
}

// TestWhiteBoxDominatesOblivious is the strength-separation pin from the
// acceptance criteria: the best oblivious schedule the search finds must
// never beat the coin-aware white-box adversary for the same (protocol,
// n, seeds). The white-box score is the winner's own schedule with the
// phase-1 bit-leak prefix grafted on — everything the winner can do plus
// coin knowledge — so on the shared confirmation seeds its mean damage
// must be at least the winner's.
func TestWhiteBoxDominatesOblivious(t *testing.T) {
	for _, protocol := range Protocols() {
		t.Run(protocol, func(t *testing.T) {
			cfg := smallConfig(protocol)
			cfg.Budget = 36
			res := mustSearch(t, cfg)
			if res.Confirm.StepsMean > res.WhiteBox.StepsMean {
				t.Errorf("oblivious winner (%.2f mean steps) beat the white-box graft (%.2f)",
					res.Confirm.StepsMean, res.WhiteBox.StepsMean)
			}
			if res.WhiteBox.PhasesMean < 2 {
				t.Errorf("white-box graft forced only %.2f mean phases; its phase-1 freeze guarantees >= 2",
					res.WhiteBox.PhasesMean)
			}
			if res.Confirm.Undecided != 0 || res.WhiteBox.Undecided != 0 {
				t.Errorf("undecided trials: confirm=%d whitebox=%d", res.Confirm.Undecided, res.WhiteBox.Undecided)
			}
		})
	}
}

// TestSearchImprovesOnFriendlyBaselines checks the winner's confirmed
// damage is at least the friendliest baseline's — the search may not
// return a schedule worse than plain round-robin it could trivially emit.
func TestSearchImprovesOnFriendlyBaselines(t *testing.T) {
	res := mustSearch(t, smallConfig("sifter"))
	rr := res.Baselines["round-robin"]
	if res.Confirm.StepsMean < rr.StepsMean*0.5 {
		t.Errorf("winner mean steps %.2f collapsed far below round-robin %.2f",
			res.Confirm.StepsMean, rr.StepsMean)
	}
	if _, ok := res.Baselines["random"]; !ok {
		t.Error("random baseline missing")
	}
}

// TestSearchBudget pins the evaluation accounting: the loop spends
// exactly Budget evaluations, plus at most ShrinkBudget for shrinking.
func TestSearchBudget(t *testing.T) {
	cfg := smallConfig("sifter")
	res := mustSearch(t, cfg)
	if res.Evaluations < cfg.Budget || res.Evaluations > cfg.Budget+cfg.ShrinkBudget {
		t.Fatalf("spent %d evaluations, want in [%d, %d]",
			res.Evaluations, cfg.Budget, cfg.Budget+cfg.ShrinkBudget)
	}
}

// TestSearchValidatesConfig covers the error paths.
func TestSearchValidatesConfig(t *testing.T) {
	if _, err := Search(Config{Protocol: "sifter", N: 1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Search(Config{Protocol: "sifter", N: 65}); err == nil {
		t.Error("n=65 accepted")
	}
	if _, err := Search(Config{Protocol: "nope", N: 4}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestShrinkPreservesFitness runs the shrinker directly on a bloated
// genome and checks the result still validates and still scores at least
// the target on the same seeds.
func TestShrinkPreservesFitness(t *testing.T) {
	def, err := protocolByName("sifter")
	if err != nil {
		t.Fatal(err)
	}
	ev := &evaluator{def: def, n: 4, maxSlots: 1 << 22}
	rng := xrand.New(11)
	g := randomGenome(4, rng, true)
	g.Prefix = append(g.Prefix, 0, 1, 2, 3, 0, 1, 2, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seeds := evalSeeds(5, 3)
	base, err := ev.score(g, seeds, srcGenome)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, evals := shrinkGenome(ev, g, base.StepsMean, seeds, 40)
	if evals > 40 {
		t.Fatalf("shrinker spent %d evaluations over its budget of 40", evals)
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk genome invalid: %v", err)
	}
	got, err := ev.score(shrunk, seeds, srcGenome)
	if err != nil {
		t.Fatal(err)
	}
	if got.StepsMean < base.StepsMean {
		t.Fatalf("shrinking lost fitness: %.2f -> %.2f", base.StepsMean, got.StepsMean)
	}
}

// TestRecordRoundTrip pins the codec: encode -> decode -> encode is
// byte-identical, and Replay regenerates the identical record.
func TestRecordRoundTrip(t *testing.T) {
	res := mustSearch(t, smallConfig("priority"))
	rec := NewRecord(res)
	data, err := artifact.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := artifact.Decode[Record](data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := artifact.Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("decode/encode not byte-identical:\n%s\nvs\n%s", data, again)
	}

	replayed, err := Replay(back, 2)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := artifact.Encode(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd, data) {
		t.Fatalf("replay not byte-identical:\n%s\nvs\n%s", data, rd)
	}
}

// TestRecordSaveLoad exercises the file round trip.
func TestRecordSaveLoad(t *testing.T) {
	res := mustSearch(t, smallConfig("sifter"))
	rec := NewRecord(res)
	path := t.TempDir() + "/sub/rec.json"
	if err := artifact.Save(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := artifact.Load[Record](path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Winner == nil || back.Protocol != "sifter" {
		t.Fatalf("loaded record mangled: %+v", back)
	}
}

// TestRecordRejectsMalformed covers the codec's error paths: malformed
// records must error, never panic.
func TestRecordRejectsMalformed(t *testing.T) {
	res := mustSearch(t, smallConfig("sifter"))
	good, err := artifact.Encode(NewRecord(res))
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		data string
	}{
		{"not json", "{"},
		{"wrong schema", strings.Replace(string(good), SchemaRecord, "attack-record/v0", 1)},
		{"empty object", "{}"},
		{"no winner", `{"schema":"attack-record/v1","protocol":"sifter","n":4,"budget":1,"pop":1,"eval_trials":1,"confirm_trials":1,"shrink_budget":1,"max_slots":1}`},
		{"winner n mismatch", strings.Replace(string(good), `"n": 4`, `"n": 5`, 1)},
		{"unknown protocol", strings.Replace(string(good), `"protocol": "sifter"`, `"protocol": "mystery"`, 1)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := artifact.Decode[Record]([]byte(tc.data)); err == nil {
				t.Fatalf("malformed record accepted: %s", tc.data)
			}
		})
	}
}

// TestGenomeValidateFaultKinds pins the obliviousness restriction on
// fault components: only stutter/stall — pure scheduling-delay faults —
// are allowed; semantic faults and crash-recovery change the model.
func TestGenomeValidateFaultKinds(t *testing.T) {
	mk := func(kind fault.Kind) *Genome {
		fs, err := fault.NewSchedule(4, []fault.Event{{Kind: kind, Pid: 1, Slot: 10, Arg: 2}})
		if err != nil {
			t.Fatal(err)
		}
		g := &Genome{N: 4, Fault: fs}
		return g
	}
	for _, kind := range []fault.Kind{fault.Stutter, fault.Stall} {
		if err := mk(kind).Validate(); err != nil {
			t.Errorf("%v rejected: %v", kind, err)
		}
	}
	for _, kind := range []fault.Kind{fault.CrashRecover, fault.StaleRead, fault.StaleScan} {
		if err := mk(kind).Validate(); err == nil {
			t.Errorf("%v accepted: fault kind breaks obliviousness or the fault model", kind)
		}
	}
}

// TestGenomeMutateCrossoverStayValid fuzzes the genome operators with
// the repair loop: every product must validate.
func TestGenomeMutateCrossoverStayValid(t *testing.T) {
	rng := xrand.New(42)
	pool := make([]*Genome, 8)
	for i := range pool {
		pool[i] = randomGenome(6, rng, i%2 == 0)
		if err := pool[i].Validate(); err != nil {
			t.Fatalf("random genome %d invalid: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		child := mutate(crossover(a, b, rng), rng, true)
		if err := child.Validate(); err != nil {
			t.Fatalf("iteration %d produced invalid child: %v\n%+v", i, err, child)
		}
		pool[rng.Intn(len(pool))] = child
	}
}
