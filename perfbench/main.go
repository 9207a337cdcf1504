// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the serving layer (an in-process
// serve.NewServer on a loopback listener, the code path snlogd runs)
// or the in-network engine (snlog.Deploy plus the simulator), checks
// every output, and prints one JSON result line:
//
//	go build -o pb . && ./pb --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run is split: an untraced half, then a traced half
// with a CPU profile and spans recorded around the calls into each
// layer, followed by per-layer replays; the result carries the
// per-layer metrics, and the span records and layer numbers are
// written under --out. README.md lists the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool   // small inputs and short phases, for the tests
	out      string // directory for the traced run's files
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failures. A mismatch is a failed
// operation whose output was wrong, as opposed to one that errored or
// was dropped; any mismatch makes the run incorrect.
type tally struct {
	attempted int64
	failed    int64
	mismatch  int64
	notes     []string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatch += o.mismatch
	t.notes = append(t.notes, o.notes...)
}

// fail counts a failed operation and keeps the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// wrong counts an operation whose output was wrong.
func (t *tally) wrong(format string, args ...any) {
	t.mismatch++
	t.fail(format, args...)
}

// sample is one measured phase of a workload.
type sample struct {
	tally
	ops     int64           // operations completed (sim: events dispatched)
	elapsed time.Duration   // time the operations took in total
	lat     []time.Duration // per-operation latency
	layers  map[string]float64
}

// env is a set-up workload, ready to measure.
type env interface {
	// measure runs the workload for about d. tr is nil for an untraced
	// phase.
	measure(d time.Duration, tr *tracer) (*sample, error)
	// replay runs the traced run's per-layer replays and adds their
	// metrics to m.
	replay(tr *tracer, traced *sample, m map[string]float64) (tally, error)
	close()
}

// workloadDef describes one named workload; README.md gives the
// reason for each.
type workloadDef struct {
	// setup builds a ready env; the benchmark calls it several times
	// and reports the median as setup_s.
	setup func(cfg config) (env, error)
	// breakdown times the set-up stages (setup.topo_ms, setup.engine_ms,
	// setup.load_ms) on a bare deployment of the same shape.
	breakdown func(cfg config, tr *tracer) (map[string]float64, error)
}

var workloads = map[string]workloadDef{
	"serve-cold":  {setup: setupCold, breakdown: serveBreakdown(forestFacts)},
	"serve-hot":   {setup: setupHot, breakdown: serveBreakdown(forestFacts)},
	"serve-churn": {setup: setupChurn, breakdown: serveBreakdown(churnFacts)},
	"sim-e1-m64":  {setup: setupSim, breakdown: simBreakdown},
}

// Units of the end-to-end metrics.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"ops_per_s":    "1/s",
	"op_p50_us":    "us",
	"live_heap_mb": "MiB",
}

// A run sets its workload up at least minSetups times, and more while
// the set-ups have taken less than setupBudget, up to maxSetups;
// setup_s is the median. Cheap set-ups thus get more samples.
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 2 * time.Second
)

func main() {
	var cfg config
	var traceFlag int
	var secs float64
	flag.StringVar(&cfg.workload, "workload", "", "workload name: serve-cold, serve-hot, serve-churn or sim-e1-m64")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&secs, "seconds", 10, "measurement time")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "smoke-sized inputs")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the traced run's span and layer files")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run sets the workload up, measures it, and assembles the result.
func run(cfg config) (*result, error) {
	def, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	machine := machineInfo(cfg)
	fmt.Println(mustJSON(map[string]any{"machine": machine}))

	var e env
	var setups []float64
	for began := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(began) < setupBudget; {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = def.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	res := &result{Metrics: make(map[string]metric)}
	var total tally
	if !cfg.trace {
		s, err := e.measure(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		total.add(s.tally)
		m := endToEnd(s, median(setups))
		s = nil // the latency samples are the benchmark's, not the program's
		m["live_heap_mb"] = liveHeapMiB(e)
		for name, v := range m {
			res.Metrics[name] = metric{Value: v, Unit: e2eUnits[name]}
		}
	} else {
		layers, t, err := tracedRun(cfg, def, e, setups, machine)
		if err != nil {
			return nil, err
		}
		total.add(t)
		for _, name := range layerNames {
			res.Metrics[name] = metric{Value: layers[name], Unit: layerUnits[name]}
		}
	}
	for _, n := range total.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	res.Attempted = total.attempted
	res.Failed = total.failed
	res.Correct = total.mismatch == 0 && total.attempted > 0
	return res, nil
}

// endToEnd derives the end-to-end metrics of one untraced phase, all
// but live_heap_mb.
func endToEnd(s *sample, setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":   setup,
		"ops_per_s": float64(s.ops) / s.elapsed.Seconds(),
		"op_p50_us": micros(quantile(s.lat, 0.50)),
	}
}

// liveHeapMiB is the live heap after a forced collection, with the
// workload's deployment still reachable.
func liveHeapMiB(keep env) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// machineInfo records where the numbers were measured.
func machineInfo(cfg config) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// quantile is the q-quantile of ds by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	if lo+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
