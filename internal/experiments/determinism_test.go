package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Golden determinism gate: every run is a pure function of its seed, so
// the E1/E5/E7 workloads below must reproduce the exact trace bytes,
// counters and derived state pinned here. Each fingerprint is three
// SHA-256 digests — the trace JSONL (radio and engine events), the
// stats line, and the sorted derived tuple keys. A digest change means
// a change to the scheduler's event order, the rng draw order, the
// accounting, or the engine's output; only a deliberate change to one
// of those may re-pin them.

type detRun struct {
	trace, stats, derived string
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func detFingerprint(e *core.Engine, nw *nsim.Network, tr *obs.Trace) detRun {
	var buf bytes.Buffer
	if _, err := tr.WriteJSONL(&buf, obs.Filter{}); err != nil {
		panic(err)
	}
	db := e.DerivedDB()
	var derived []string
	for _, pred := range db.Predicates() {
		for _, t := range db.Tuples(pred) {
			derived = append(derived, t.Key())
		}
	}
	sort.Strings(derived)
	stats := fmt.Sprintf("sent=%d bytes=%d dropped=%d retries=%d events=%d end=%d",
		nw.TotalSent, nw.TotalBytes, nw.TotalDropped, nw.TotalRetries, nw.EventsProcessed, nw.Now())
	return detRun{
		trace:   digest(buf.Bytes()),
		stats:   digest([]byte(stats)),
		derived: digest([]byte(strings.Join(derived, "\n"))),
	}
}

// detDeploy builds an observed engine on a Grid(m) network.
func detDeploy(m int, src string, cfg core.Config, sim nsim.Config) (*core.Engine, *nsim.Network, *obs.Trace) {
	nw := topo.Grid(m, sim)
	e, err := core.New(nw, mustProg(src), cfg)
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTrace(1 << 16)
	nw.Observe(reg, tr)
	e.Observe(reg, tr)
	nw.Finalize()
	return e, nw, tr
}

// detE1: the E1 two-stream Perpendicular join (TraceE1's workload).
func detE1() detRun {
	e, nw, tr := detDeploy(8, twoStreamSrc, core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 11})
	e.Start()
	injectJoinWorkload(e, nw, 40, 17)
	nw.Run(0)
	return detFingerprint(e, nw, tr)
}

// detE5: the E5 logicJ shortest-path-tree program over grid adjacency.
func detE5() detRun {
	e, nw, tr := detDeploy(6, logicJSrc, core.Config{}, nsim.Config{Seed: 41})
	for _, n := range nw.Nodes() {
		for _, nb := range n.Neighbors() {
			e.InjectAt(0, n.ID, eval.NewTuple("g",
				ast.Symbol(fmt.Sprintf("n%d", n.ID)),
				ast.Symbol(fmt.Sprintf("n%d", nb))))
		}
	}
	e.Start()
	nw.Run(0)
	return detFingerprint(e, nw, tr)
}

// detE7: the E7 lossy-link join (30% loss, 3 retries), which exercises
// the loss and ARQ draws on the rng stream.
func detE7() detRun {
	e, nw, tr := detDeploy(8, twoStreamSrc, core.Config{Scheme: gpa.Perpendicular},
		nsim.Config{Seed: 61, LossRate: 0.3, Retries: 3})
	e.Start()
	r := rand.New(rand.NewSource(67))
	for i := 0; i < 40; i++ {
		key := int64(i % 20)
		e.InjectAt(nsim.Time(i*9), nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(key)))
		e.InjectAt(nsim.Time(i*9+4), nsim.NodeID(r.Intn(nw.Len())),
			eval.NewTuple("rb", ast.Int64(key), ast.Int64(int64(i))))
	}
	nw.Run(0)
	return detFingerprint(e, nw, tr)
}

func TestGoldenDeterminism(t *testing.T) {
	cases := []struct {
		name string
		run  func() detRun
		want detRun
	}{
		{"E1join", detE1, detRun{
			trace:   "8e0208bb986c0bf46812468bb40b8d6f389101b41af35f32f9e193b4406fa5ca",
			stats:   "466cf8ae53303acf75bd4693d9b645ad958f1d66209960dd28c70995111b8af6",
			derived: "dcf07326854d0c2f08caf5b45f3d7484eb4423547455ff111de9de147cd18f7b",
		}},
		{"E5spt", detE5, detRun{
			trace:   "536dda4d40f517ff9af9587287dd3d651ccfd5e965ae22475892b118a01fb373",
			stats:   "d994b00311fadd73e41e31121c9a4f067ea437003eb193d902e92c36dad6149a",
			derived: "28cdfa36a9e6cbd4cad5dee81eabd7ff9cae10c5bf7e04b7f70cf302adc897dc",
		}},
		{"E7loss", detE7, detRun{
			trace:   "4314a1e9825b679368af57af7f3aad04e27a2b95664c9933a1190c4d5ad3c13a",
			stats:   "c2cb20325c09361ab414dce1ccecab750c42332f2b6c4ecf57a739f0e73d6dbf",
			derived: "f91c9ae7173f9edb41e0f93fe39c3538426349a263b0ad4203d67f43da0fdcf9",
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := c.run()
			if got.trace != c.want.trace {
				t.Errorf("trace digest %s, want %s", got.trace, c.want.trace)
			}
			if got.stats != c.want.stats {
				t.Errorf("stats digest %s, want %s", got.stats, c.want.stats)
			}
			if got.derived != c.want.derived {
				t.Errorf("derived digest %s, want %s", got.derived, c.want.derived)
			}
		})
	}
}
