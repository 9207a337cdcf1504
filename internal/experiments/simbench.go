package experiments

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gpa"
	"repro/internal/nsim"
	"repro/internal/topo"
)

// SimFinalizeRow times Network.Finalize (spatial grid index, or the
// all-pairs scan below its size cutoff) on one grid size.
type SimFinalizeRow struct {
	Nodes  int     `json:"nodes"`
	GridM  int     `json:"grid_m"`
	GridMs float64 `json:"grid_ms"`
}

// SimBatchRow compares link traffic with and without batched transport
// (core.Config.BatchLinks) on the epoch-burst two-stream join.
type SimBatchRow struct {
	GridM        int     `json:"grid_m"`
	Nodes        int     `json:"nodes"`
	MessagesOff  int64   `json:"messages_off"`
	MessagesOn   int64   `json:"messages_on"`
	MsgReduxPct  float64 `json:"msg_redux_pct"`
	BytesOff     int64   `json:"bytes_off"`
	BytesOn      int64   `json:"bytes_on"`
	ByteReduxPct float64 `json:"byte_redux_pct"`
}

// SimBenchResult is the simulator benchmark snbench emits as
// BENCH_sim.json (DESIGN.md §9).
type SimBenchResult struct {
	Finalize []SimFinalizeRow `json:"finalize"`

	// Full E1 m=18 PA workload: typed event queue, grid index and
	// routing cache. The _fast suffix is kept so committed baselines
	// stay comparable.
	Events             int64   `json:"events"`
	EventsPerSecFast   float64 `json:"events_per_sec_fast"`
	AllocsPerEventFast float64 `json:"allocs_per_event_fast"`

	Batching []SimBatchRow `json:"batching"`

	// Cores is runtime.NumCPU() on the measuring machine; timing rows
	// are only comparable between runs on the same hardware.
	// GoMaxProcs records what the Go scheduler was actually allowed to
	// use (GOMAXPROCS at measurement time); NumCPU duplicates Cores
	// under the conventional name.
	Cores      int `json:"cores"`
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`

	// Counters is the obs.Snapshot of an observed run of the same E1
	// m=18 workload (collected outside the timed regions, which stay
	// unobserved), so BENCH_sim.json tracks behavioral counters —
	// messages, probes, joins, derivations — alongside the timings.
	Counters map[string]int64 `json:"counters"`
}

// SimBench measures Finalize with the grid index, event throughput and
// allocation rate on the E1 m=18 workload, and link traffic under
// batching. reps controls timed repetitions.
func SimBench(reps int) SimBenchResult {
	if reps < 1 {
		reps = 1
	}
	var res SimBenchResult

	for _, m := range []int{10, 20, 40, 80} {
		start := time.Now()
		for r := 0; r < reps; r++ {
			nw := topo.Grid(m, nsim.Config{Seed: 3})
			nw.Finalize()
		}
		res.Finalize = append(res.Finalize, SimFinalizeRow{
			Nodes: m * m, GridM: m,
			GridMs: time.Since(start).Seconds() * 1000 / float64(reps),
		})
	}

	// The E1 m=18 workload, timed over the event loop only; Finalize
	// cost is reported separately above. Mallocs is the monotone heap
	// object count, so the delta is GC-independent.
	var mallocs uint64
	var runSecs float64
	for r := 0; r < reps; r++ {
		e, nw := deployGrid(18, twoStreamSrc,
			core.Config{Scheme: gpa.Perpendicular}, nsim.Config{Seed: 11})
		injectJoinWorkload(e, nw, 40, 17)
		runtime.GC() // drain garbage from setup so the timed region pays only its own
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		nw.Run(0)
		runSecs += time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		res.Events = nw.EventsProcessed
		mallocs = after.Mallocs - before.Mallocs
	}
	res.EventsPerSecFast = float64(res.Events) / (runSecs / float64(reps))
	res.AllocsPerEventFast = float64(mallocs) / float64(res.Events)

	for _, m := range []int{10, 14} {
		batch := func(on bool) (int64, int64) {
			e, nw := deployGrid(m, twoStreamSrc,
				core.Config{Scheme: gpa.Perpendicular, BatchLinks: on},
				nsim.Config{Seed: 13, MaxSkew: 5})
			injectBurstWorkload(e, nw, 6, 4, 29)
			nw.Run(0)
			return nw.TotalSent, nw.TotalBytes
		}
		offMsgs, offBytes := batch(false)
		onMsgs, onBytes := batch(true)
		res.Batching = append(res.Batching, SimBatchRow{
			GridM: m, Nodes: m * m,
			MessagesOff: offMsgs, MessagesOn: onMsgs,
			MsgReduxPct: 100 * (1 - float64(onMsgs)/float64(offMsgs)),
			BytesOff:    offBytes, BytesOn: onBytes,
			ByteReduxPct: 100 * (1 - float64(onBytes)/float64(offBytes)),
		})
	}

	res.Cores = runtime.NumCPU()
	res.NumCPU = runtime.NumCPU()
	res.GoMaxProcs = runtime.GOMAXPROCS(0)

	res.Counters = TraceE1(18, 20, 1).Registry.Snapshot().Counters
	return res
}
