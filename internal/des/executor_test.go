package des

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// TestServerMatchesDenseMemory pins that the DES's memory server and the
// flat engine's dense memory are the same shared memory, op for op. It
// records the order in which the server applied each (non-duplicate)
// operation in a DES run, replays that process order through
// FlatConsensus.Step on the dense memory with each process drawing from
// its DES RNG seed, and requires every replayed process to issue the
// operation the server applied, finish on exactly its last one, and end
// with the DES run's decision and phase count.
func TestServerMatchesDenseMemory(t *testing.T) {
	const n = 24
	for _, protocol := range Protocols() {
		for _, loss := range []float64{0, 0.1} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := Config{N: n, Protocol: protocol, Seed: seed, Net: NetConfig{Loss: loss}}
				var (
					seeds   [n]uint64
					applied []message
					desCore *consensus.FlatConsensus
				)
				res, err := run(cfg, func(d *runner) {
					for i := range d.procs {
						seeds[i] = d.procs[i].seedBase
					}
					desCore = d.core
					d.srv.log = func(req, _ message) { applied = append(applied, req) }
				})
				requireClean(t, res, err)

				cfg = cfg.withDefaults()
				m, err := consensus.NewFlat(n, consensus.FlatConfig{
					Conciliator: protocol, AC: consensus.ACRegister,
					Epsilon: cfg.Epsilon, MaxPhases: cfg.MaxPhases + 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				m.Reset(nil) // input = pid mod 2, the DES default
				var rngs [n]xrand.Rand
				for pid := range rngs {
					rngs[pid].Reseed(seeds[pid])
					m.Init(pid, &rngs[pid])
				}
				var steps [n]int64
				for k, req := range applied {
					pid := int(req.from)
					if m.Decided(pid) {
						t.Fatalf("%s loss %g seed %d: op %d: process %d applied an op after deciding", protocol, loss, seed, k, pid)
					}
					if op := m.Issue(pid); op != req.Op {
						t.Fatalf("%s loss %g seed %d: op %d: process %d issues %+v, server applied %+v", protocol, loss, seed, k, pid, op, req.Op)
					}
					steps[pid]++
					m.Step(pid, &rngs[pid])
				}
				for pid := 0; pid < n; pid++ {
					if steps[pid] != res.Steps[pid] || !m.Decided(pid) {
						t.Errorf("%s loss %g seed %d: process %d replayed %d steps (decided %v), DES took %d",
							protocol, loss, seed, pid, steps[pid], m.Decided(pid), res.Steps[pid])
					}
					if int(m.Output(pid)) != res.Decision || m.Phases(pid) != desCore.Phases(pid) {
						t.Errorf("%s loss %g seed %d: process %d replay decided %d in %d phases, DES %d in %d",
							protocol, loss, seed, pid, m.Output(pid), m.Phases(pid), res.Decision, desCore.Phases(pid))
					}
				}
			}
		}
	}
}
