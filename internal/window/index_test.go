package window

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// TestVisibleMatchIndexEqualsScan drives random Insert, MarkDeleted,
// tombstone-before-insert and ExpirePred sequences on one table, probing
// it through two bound-position signatures. At or above indexMinTable
// live entries a probe must return exactly the unindexed scan
// (cols == nil) filtered by eval.ArgKey, in the same insertion order,
// including right after a compaction dropped the indexes; below it the
// probe returns the whole scan and leaves the key match to the caller.
func TestVisibleMatchIndexEqualsScan(t *testing.T) {
	const pred = "r/3"
	sigs := [][]int{{0}, {1, 2}}
	var indexed, compactions int
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		var ids []Stamp     // inserted stamps, for deletions
		var pending []Stamp // deleted before their insertion arrives
		var seq int64
		now := int64(0)
		val := func() ast.Term { return ast.Int64(int64(r.Intn(4))) }
		stamp := func(ts int64) Stamp {
			seq++
			return Stamp{TS: ts, Node: r.Intn(5), Seq: seq}
		}
		for step := 0; step < 800; step++ {
			now += int64(r.Intn(3))
			switch op := r.Intn(100); {
			case op < 45: // insert, landing a pending tombstone first
				id := stamp(now)
				if len(pending) > 0 && r.Intn(2) == 0 {
					id, pending = pending[0], pending[1:]
				}
				s.Insert(eval.NewTuple("r", val(), val(), val()), id)
				ids = append(ids, id)
			case op < 60: // delete a stored replica
				if len(ids) > 0 {
					s.MarkDeleted(pred, ids[r.Intn(len(ids))], stamp(now+int64(r.Intn(10))))
				}
			case op < 68: // deletion overtakes its insertion
				id := stamp(now)
				s.MarkDeleted(pred, id, stamp(now+int64(r.Intn(10))))
				pending = append(pending, id)
			case op < 71: // expiry: often enough to compact
				hadIndex := s.preds[pred] != nil && s.preds[pred].indexes != nil
				s.ExpirePred(pred, now, int64(10+r.Intn(60)))
				if hadIndex && s.preds[pred].indexes == nil {
					compactions++
				}
			default: // probe
				tau := Stamp{TS: now - int64(r.Intn(30)) + 5, Node: r.Intn(5), Seq: int64(r.Intn(int(seq) + 1))}
				w := []int64{0, 15, 60}[r.Intn(3)]
				cols := sigs[r.Intn(len(sigs))]
				args := []ast.Term{val(), val(), val()}
				key := eval.ArgKey(args, cols)
				small := s.SmallTable(pred)
				if !small {
					indexed++
				}
				got := s.VisibleMatch(pred, tau, w, cols, []byte(key), nil)
				var want []*Entry
				for _, e := range visible(s, pred, tau, w) {
					if small || eval.ArgKey(e.Tuple.Args, cols) == key {
						want = append(want, e)
					}
				}
				if g, w := entryKeys(got), entryKeys(want); g != w {
					t.Fatalf("seed %d step %d cols %v: VisibleMatch\n  %s\nwant scan\n  %s", seed, step, cols, g, w)
				}
			}
		}
	}
	t.Logf("indexed probes %d, index-dropping compactions %d", indexed, compactions)
	// The sequences must actually exercise both index paths.
	if indexed == 0 || compactions == 0 {
		t.Fatalf("indexed probes %d, index-dropping compactions %d: both must be > 0", indexed, compactions)
	}
}

func entryKeys(es []*Entry) string {
	out := ""
	for _, e := range es {
		out += fmt.Sprintf("%s@%s ", e.Tuple.Key(), e.ID.Key())
	}
	return out
}
