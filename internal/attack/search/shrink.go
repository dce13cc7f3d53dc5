package search

import (
	"github.com/oblivious-consensus/conciliator/internal/artifact"
	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// shrinkGenome ddmin-reduces the winning genome while preserving its
// evaluation-seed fitness: a reduction is kept only if the reduced
// genome's StepsMean on the same seeds is at least target. Passes, in
// order: drop the fault schedule wholesale, delete prefix chunks
// (artifact.DeleteChunks), delete whole segments one at a time, collapse
// the weights to uniform, halve segment lengths toward 1
// (artifact.HalveEach), and
// finally hand a surviving fault schedule to fault.Shrink. The search is
// deterministic and spends at most budget evaluations; it returns the
// reduced genome and the evaluations spent.
func shrinkGenome(ev *evaluator, g *Genome, target float64, seeds []seedPair, budget int) (*Genome, int) {
	cur := g.Clone()
	evals := 0
	// keeps reports whether cand scores at least target, spending one
	// evaluation. Invalid candidates are rejected for free.
	keeps := func(cand *Genome) bool {
		if evals >= budget || cand.Validate() != nil {
			return false
		}
		evals++
		s, err := ev.score(cand, seeds, srcGenome)
		return err == nil && s.StepsMean >= target
	}

	if cur.Fault != nil {
		cand := cur.Clone()
		cand.Fault = nil
		if keeps(cand) {
			cur = cand
		}
	}

	cur.Prefix = artifact.DeleteChunks(cur.Prefix, func(prefix []int) bool {
		cand := cur.Clone()
		cand.Prefix = prefix
		return keeps(cand)
	})

	for i := 0; i < len(cur.Segments); {
		cand := cur.Clone()
		cand.Segments = append(append([]Segment(nil), cur.Segments[:i]...), cur.Segments[i+1:]...)
		if keeps(cand) {
			cur = cand
		} else {
			i++
		}
	}

	if len(cur.Weights) > 0 {
		cand := cur.Clone()
		cand.Weights = nil
		if keeps(cand) {
			cur = cand
		}
	}

	segLen := func(sg Segment) (int64, int64) { return int64(sg.Len), 1 }
	withLen := func(sg Segment, n int64) Segment {
		sg.Len = int(n)
		return sg
	}
	cur.Segments = artifact.HalveEach(cur.Segments, segLen, withLen, func(segs []Segment) bool {
		cand := cur.Clone()
		cand.Segments = segs
		return keeps(cand)
	})

	if cur.Fault != nil && evals < budget {
		// fault.Shrink caps its own repro invocations at the remaining
		// budget; each invocation costs one evaluation here.
		shrunk := fault.Shrink(cur.Fault, budget-evals, func(s *fault.Schedule) bool {
			cand := cur.Clone()
			cand.Fault = s
			if cand.Validate() != nil {
				return false
			}
			evals++
			sc, err := ev.score(cand, seeds, srcGenome)
			return err == nil && sc.StepsMean >= target
		})
		cand := cur.Clone()
		cand.Fault = shrunk
		if cand.Validate() == nil {
			cur = cand
		}
	}

	return cur, evals
}
