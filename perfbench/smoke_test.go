package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// simSmokeEvents is the exact event count of one sim-e1-m64 wave at
// seed 17: E1's injection schedule on Grid(64) with k=400.
const simSmokeEvents = 214312

// TestSmoke runs every workload smoke-sized and traced, and checks the
// structural property each one exists for.
func TestSmoke(t *testing.T) {
	checks := map[string]func(t *testing.T, m map[string]metric){
		"serve-cold": func(t *testing.T, m map[string]metric) {
			if r := m["cache.hit_ratio"].Value; r >= 0.5 {
				t.Errorf("cache.hit_ratio = %v, want below 0.5: most cold queries must miss", r)
			}
		},
		"serve-hot": func(t *testing.T, m map[string]metric) {
			if r := m["cache.hit_ratio"].Value; r < 0.99 {
				t.Errorf("cache.hit_ratio = %v, want about 1: every hot query must hit", r)
			}
		},
		"serve-churn": func(t *testing.T, m map[string]metric) {
			if f := m["batch.flushes_per_s"].Value; f <= 0 {
				t.Errorf("batch.flushes_per_s = %v, want > 0", f)
			}
			if d := m["subs.deltas_per_write"].Value; d <= 0 {
				t.Errorf("subs.deltas_per_write = %v, want > 0", d)
			}
		},
		"sim-e1-m64": func(t *testing.T, m map[string]metric) {
			if ev := m["nsim.events"].Value; ev != simSmokeEvents {
				t.Errorf("nsim.events = %v, want exactly %d", ev, simSmokeEvents)
			}
			if c := m["cpu.nsim"].Value; c <= 0 || c > 100 {
				t.Errorf("cpu.nsim = %v%%, want a share in (0, 100]", c)
			}
		},
	}
	for _, w := range []string{"serve-cold", "serve-hot", "serve-churn", "sim-e1-m64"} {
		t.Run(w, func(t *testing.T) {
			out := t.TempDir()
			res, err := run(config{workload: w, seed: 17, seconds: time.Second, trace: true, smoke: true, out: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(layerNames) {
				t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(res.Metrics), len(layerNames))
			}
			for _, name := range layerNames {
				if m, ok := res.Metrics[name]; !ok || m.Unit == "" {
					t.Errorf("metric %s missing or without unit", name)
				}
			}
			for _, suffix := range []string{".spans.jsonl", ".layers.json"} {
				path := filepath.Join(out, w+"-seed17"+suffix)
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("traced run did not write %s: %v", path, err)
				}
			}
			checks[w](t, res.Metrics)
		})
	}
}

// TestEndToEndMetrics checks that an untraced run reports exactly the
// end-to-end metrics, none of them zero.
func TestEndToEndMetrics(t *testing.T) {
	res, err := run(config{workload: "serve-hot", seed: 3, seconds: 300 * time.Millisecond, smoke: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(e2eUnits) {
		t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(e2eUnits))
	}
	for name, unit := range e2eUnits {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", name, m, unit)
		}
	}
}

// TestSimWaveIsE1 pins the sim input generator: the same seed gives the
// same schedule, and every join key meets two ra and two rb tuples.
func TestSimWaveIsE1(t *testing.T) {
	a, b := simWave(17), simWave(17)
	if len(a) != 2*simPairs {
		t.Fatalf("wave has %d injections, want %d", len(a), 2*simPairs)
	}
	for i := range a {
		if a[i].node != b[i].node || a[i].at != b[i].at || a[i].t.Key() != b[i].t.Key() {
			t.Fatalf("injection %d differs between two draws of one seed", i)
		}
	}
	ra, rb := make(map[string]int), make(map[string]int)
	for _, in := range a {
		switch in.t.Pred {
		case "ra/2":
			ra[in.t.Args[1].String()]++
		case "rb/2":
			rb[in.t.Args[0].String()]++
		}
	}
	if len(ra) != simPairs/2 {
		t.Errorf("wave has %d join keys, want %d", len(ra), simPairs/2)
	}
	for k, n := range ra {
		if n != 2 || rb[k] != 2 {
			t.Errorf("join key %s: %d ra and %d rb tuples, want 2 and 2", k, n, rb[k])
		}
	}
}
