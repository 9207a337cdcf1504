package eval

import "fmt"

// InsertBatch applies a batch of base-stream insertions as one
// semi-naive delta: every batch tuple enters the database up front, then
// a single shared cascade queue propagates all of them. Compared to a
// fold over Insert, the batched path probes each rule's indexes once per
// batch tuple against the full post-batch state instead of replaying the
// intermediate states, which is what makes large deltas amortize into
// one index-probe pass per predicate.
//
// The batched path is only sound under SetOfDerivations: a join between
// two batch tuples is discovered once per pinned occurrence, and the
// derivation-key set absorbs the duplicates (Counting would double-count
// the multiplicity). Other modes fall back to the sequential fold.
//
// The final database and derivation sets equal the sequential fold's for
// any batch order (checks run against the current database state, so a
// retraction that finds no derivation to remove corresponds exactly to
// an addition the now-visible batch tuple already blocked). The returned
// Changes are the net visible transitions in application order, which
// can be fewer than the fold's: a derived tuple that a later batch tuple
// retracts within the same batch may never surface at all.
func (m *Maintainer) InsertBatch(ts []Tuple) ([]Change, error) {
	if m.mode != SetOfDerivations {
		var out []Change
		for _, t := range ts {
			ch, err := m.Insert(t)
			if err != nil {
				return out, err
			}
			out = append(out, ch...)
		}
		return out, nil
	}
	queue := make([]Change, 0, len(ts))
	for i, t := range ts {
		if i == 0 || t.Pred != ts[i-1].Pred {
			m.db.reserve(t.Pred, runLength(ts[i:]))
		}
		if m.db.Insert(t) { // duplicate base insertions are no-ops
			queue = append(queue, Change{Tuple: t, Insert: true})
		}
	}
	var out []Change
	for steps := 0; len(queue) > 0; steps++ {
		if steps > maxCascade {
			return out, fmt.Errorf("eval: maintenance cascade exceeded %d steps (program not locally non-recursive?)", maxCascade)
		}
		m.stats.CascadeSteps++
		c := queue[0]
		queue = queue[1:]
		effects, err := m.propagate(c)
		if err != nil {
			return out, err
		}
		for _, e := range effects {
			out = append(out, e)
			queue = append(queue, e)
		}
	}
	return out, nil
}

// DeleteBatch applies a batch of base-stream deletions as a sequential
// fold over Delete. Deletions cannot be batch-applied the way
// insertions are: removing the whole batch from the database before
// propagating would hide a derivation supported by two simultaneously
// deleted tuples from both tuples' retraction sweeps (each sweep needs
// the other tuple still visible to reconstruct the derivation key it
// must remove). The fold keeps every intermediate state consistent; the
// method exists so batch producers have one symmetric entry point.
func (m *Maintainer) DeleteBatch(ts []Tuple) ([]Change, error) {
	var out []Change
	for _, t := range ts {
		ch, err := m.Delete(t)
		if err != nil {
			return out, err
		}
		out = append(out, ch...)
	}
	return out, nil
}

// runLength counts the leading tuples of ts that share ts[0]'s
// predicate.
func runLength(ts []Tuple) int {
	n := 1
	for n < len(ts) && ts[n].Pred == ts[0].Pred {
		n++
	}
	return n
}
