package routing

import (
	"math/rand"
	"testing"

	"repro/internal/nsim"
	"repro/internal/topo"
)

// TestEngineNearestCacheInvalidatesOnDeath: the per-point cache must
// serve hits while the cached node lives and recompute once it dies.
func TestEngineNearestCacheInvalidatesOnDeath(t *testing.T) {
	m := 5
	nw := topo.Grid(m, nsim.Config{Seed: 1})
	nw.Finalize()
	e := NewEngine(nw)
	first := e.NearestNode(2, 2)
	if first == nil || first.ID != topo.GridID(m, 2, 2) {
		t.Fatalf("nearest(2,2) = %v", first)
	}
	if again := e.NearestNode(2, 2); again.ID != first.ID {
		t.Fatalf("cache returned %d, want %d", again.ID, first.ID)
	}
	nw.Node(first.ID).Down = true
	after := e.NearestNode(2, 2)
	if after == nil || after.ID == first.ID {
		t.Fatalf("cache served a dead node: %v", after)
	}
	if after.ID != nw.NearestNode(2, 2).ID {
		t.Fatalf("recomputed nearest %d disagrees with network %d", after.ID, nw.NearestNode(2, 2).ID)
	}
}

// TestEngineAtTargetMatchesPackage: the cached termination test agrees
// with the uncached nsim.Network.NearestNode scan on every (node,
// target) pair, before and after deaths.
func TestEngineAtTargetMatchesPackage(t *testing.T) {
	m := 4
	nw := topo.Grid(m, nsim.Config{Seed: 2})
	nw.Finalize()
	e := NewEngine(nw)
	check := func() {
		t.Helper()
		for _, n := range nw.Nodes() {
			for _, tgt := range [][2]float64{{0, 0}, {1.4, 2.2}, {3, 3}, {-1, 5}} {
				got := e.AtTarget(n.ID, tgt[0], tgt[1])
				nearest := nw.NearestNode(tgt[0], tgt[1])
				want := nearest != nil && nearest.ID == n.ID
				if got != want {
					t.Fatalf("AtTarget(%d, %v) = %v, want %v", n.ID, tgt, got, want)
				}
			}
		}
	}
	check()
	nw.Node(topo.GridID(m, 0, 0)).Down = true
	nw.Node(topo.GridID(m, 3, 3)).Down = true
	check()
}

// TestEngineGreedyPathMatchesPackage: the stamp-based scratch visited
// set must trace exactly the path the per-call map produced, across many
// reuses of the same engine (the point of the scratch is reuse).
func TestEngineGreedyPathMatchesPackage(t *testing.T) {
	nw, err := topo.RandomGeometric(60, 8, 1.6, 5, nsim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.Finalize()
	e := NewEngine(nw)
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		from := nsim.NodeID(r.Intn(nw.Len()))
		tx, ty := r.Float64()*8, r.Float64()*8
		want := GreedyPath(nw, from, tx, ty, 200)
		got := e.GreedyPath(from, tx, ty, 200)
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine path %v, package path %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d hop %d: engine %d, package %d", trial, i, got[i], want[i])
			}
		}
	}
}
