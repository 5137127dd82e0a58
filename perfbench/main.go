// Command perfbench is the repository's benchmark. It runs one simulator
// workload through core.Run, the entry point vertigo-sim, vertigo-exp and
// vertigo-serve share, repeatedly for a fixed wall-clock window; checks
// every run's outputs; and prints the end-to-end metrics, or with -trace 1
// the per-layer ledger, as one JSON object on the last line of standard
// output. The line before it is the run's full record: host fingerprint,
// steal time, simulated outcomes and metrics.
//
//	perfbench -workload ls_vertigo_incast -seed 1 -seconds 20 -trace 0
//	perfbench -compare before/results.jsonl after/results.jsonl
//
// NOTES.md describes the workloads, the metrics and the noise measured on
// the reference host.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/metrics"
	"vertigo/internal/topo"
	"vertigo/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds of measured simulations")
	trace := fs.Int("trace", 0, "1 profiles the run and prints the per-layer metrics instead")
	out := fs.String("out", ".bench_build/perfbench", "directory for result records, spans and CPU profiles")
	compare := fs.Bool("compare", false, "compare the result records of two files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rec, res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", f)
	}
	if err := report(stdout, *out, rec, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report appends the record to the results file and prints it, then the
// result line.
func report(stdout io.Writer, outDir string, rec *record, res *result) error {
	if err := appendRecord(filepath.Join(outDir, "results.jsonl"), rec); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(struct {
		Record *record `json:"record"`
	}{rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run measured, kept so two sets of runs can be
// compared (see -compare) and a noisy host told apart from a slow commit.
type record struct {
	RunID     string      `json:"run_id"`
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Trace     bool        `json:"trace"`
	Host      fingerprint `json:"host"`
	StealFrac float64     `json:"steal_frac"`
	Sims      int         `json:"sims"`
	Failures  []string    `json:"failures,omitempty"`
	// SimPktsPerS is each untraced simulation's pkts/s, in run order.
	SimPktsPerS []float64              `json:"sim_pkts_per_s"`
	Model       map[string]float64     `json:"model"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// simSample is the host cost of one core.Run.
type simSample struct {
	wall, cpu time.Duration
	pkts      int64
	rt        runtimeCounters // deltas over the run
}

func (s simSample) pktsPerSec() float64 { return ratio(float64(s.pkts), s.wall.Seconds()) }

func (s simSample) cpuPerPkt() float64 { return ratio(float64(s.cpu.Nanoseconds()), float64(s.pkts)) }

// sum adds up simulations, so rates are taken over all their packets and
// time rather than averaged per simulation.
func sum(ss []simSample) simSample {
	var t simSample
	for _, s := range ss {
		t.wall += s.wall
		t.cpu += s.cpu
		t.pkts += s.pkts
		t.rt.allocs += s.rt.allocs
		t.rt.allocBytes += s.rt.allocBytes
		t.rt.gcCycles += s.rt.gcCycles
		t.rt.gcCPU += s.rt.gcCPU
	}
	return t
}

// Repetition bounds for the set-up timings: at least minReps calls, then
// more until setupBudget has passed or maxReps calls were made.
const (
	minReps     = 9
	maxReps     = 100000
	setupBudget = time.Second
)

// bench runs workload w at seed for window and returns its record and
// result line. Errors are reserved for runs that could not measure at all;
// a simulation that fails or fails its checks is a failed attempt instead.
func bench(w workload, seed int64, window time.Duration, traced bool, outDir string) (*record, *result, error) {
	cfg := w.config(seed)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Shards <= 1 {
		// A serial simulation gets one core, the garbage collector included,
		// so its times do not depend on whether a second core is free.
		runtime.GOMAXPROCS(1)
	}
	runID := fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())
	var spans *spanLog
	if traced {
		spans = newSpanLog(runID)
	}
	root := spans.begin("bench", 0)
	vals := map[string]float64{}

	setupCfg := setupConfig(cfg)
	setup, err := timeRepeated(spans, "core.Run/setup", root, func() error {
		_, err := core.Run(setupCfg)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("set-up run: %w", err)
	}
	vals["setup_s"] = setup
	if traced {
		if err := measureTopo(cfg, spans, root, vals); err != nil {
			return nil, nil, err
		}
	}

	var (
		attempted int
		failures  []string
		first     *core.Result // counts of the first good simulation
		digest    [32]byte
		plain     []simSample // untraced simulations
		profiled  []simSample
		layerNS   = map[string]int64{}
	)
	pt0, _ := readProcTimes()
	deadline := time.Now().Add(window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// A traced run profiles half its simulations in the order U P P U,
		// so neither side always gets the process's first, coldest run.
		var prof *bytes.Buffer
		if traced && (i%4 == 1 || i%4 == 2) {
			prof = &bytes.Buffer{}
		}
		attempted++
		runtime.GC() // every simulation starts from a collected heap
		name := "core.Run"
		if prof != nil {
			name = "core.Run/profiled"
		}
		sp := spans.begin(name, root)
		s, res, err := runSim(cfg, prof)
		spans.end(sp)
		if err == nil {
			err = checkSummary(res.Summary, int64(res.Pool.Gets-res.Pool.Puts))
		}
		if err == nil {
			var d [32]byte
			if d, err = summaryDigest(res.Summary); err == nil {
				if first == nil {
					digest = d
					first = &core.Result{Summary: res.Summary.Compact(), Engine: res.Engine, Pool: res.Pool, Trains: res.Trains}
				} else if d != digest {
					err = fmt.Errorf("summary differs from the first execution of the same config")
				}
			}
		}
		if err == nil && prof != nil {
			err = keepProfile(prof.Bytes(), filepath.Join(outDir, "profiles", fmt.Sprintf("%s-%d.pprof", runID, i)), layerNS)
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("simulation %d: %v", i, err))
			continue
		}
		if prof != nil {
			profiled = append(profiled, s)
		} else {
			plain = append(plain, s)
		}
	}
	pt1, _ := readProcTimes()
	spans.end(root)

	var pps []float64
	for _, s := range plain {
		pps = append(pps, s.pktsPerSec())
	}
	all := sum(plain)
	vals["pkts_per_s"] = all.pktsPerSec()
	vals["cpu_ns_per_pkt"] = all.cpuPerPkt()
	vals["peak_rss_mb"] = peakRSSMB()
	vals["ok_frac"] = float64(attempted-len(failures)) / float64(attempted)

	host := hostFingerprint()
	steal := stealFrac(pt0, pt1)
	if first == nil { // every simulation failed: report zero counts
		first = &core.Result{Summary: &metrics.Summary{}}
	}
	sum0 := first.Summary
	model := map[string]float64{
		"model.pkts_sent":     float64(sum0.PacketsSent),
		"model.flows_started": float64(sum0.FlowsStarted),
		"model.drops":         float64(sum0.Drops),
		"model.qct_p99_us":    float64(sum0.P99QCT) / float64(units.Microsecond),
		"model.fct_p99_us":    float64(sum0.P99FCT) / float64(units.Microsecond),
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for k, v := range model {
			vals[k] = v
		}
		layerLedger(vals, first, plain, profiled, layerNS)
		vals["env.steal_frac"] = steal
		vals["env.nproc"] = float64(host.NProc)
		vals["env.gomaxprocs"] = float64(host.GOMAXPROCS)
	}
	ms, err := pick(defs, vals)
	if err != nil {
		return nil, nil, err
	}
	if err := spans.write(filepath.Join(outDir, "spans")); err != nil {
		return nil, nil, err
	}
	rec := &record{
		RunID: runID, Workload: w.name, Seed: seed, Trace: traced,
		Host: host, StealFrac: steal, Sims: attempted, Failures: failures, SimPktsPerS: pps,
		Model: model, Metrics: ms,
	}
	res := &result{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    len(failures),
		Metrics:   ms,
	}
	return rec, res, nil
}

// runSim times one core.Run, profiling it into prof when prof is non-nil.
func runSim(cfg core.Config, prof *bytes.Buffer) (simSample, *core.Result, error) {
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return simSample{}, nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	res, err := core.Run(cfg)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	s := simSample{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	rt1 := readRuntime()
	s.rt = runtimeCounters{
		allocs:     rt1.allocs - rt0.allocs,
		allocBytes: rt1.allocBytes - rt0.allocBytes,
		gcCycles:   rt1.gcCycles - rt0.gcCycles,
		gcCPU:      rt1.gcCPU - rt0.gcCPU,
	}
	if err != nil {
		return s, nil, err
	}
	s.pkts = res.Summary.PacketsSent
	return s, res, nil
}

// keepProfile adds a profile's samples to the layer ledger and stores it for
// `go tool pprof`.
func keepProfile(gz []byte, path string, layerNS map[string]int64) error {
	if err := profileLayerNS(gz, layerNS); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("storing profile: %w", err)
	}
	if err := os.WriteFile(path, gz, 0o644); err != nil {
		return fmt.Errorf("storing profile: %w", err)
	}
	return nil
}

// timeRepeated calls fn at least minReps times, and then until setupBudget
// has passed or maxReps calls were made, each under a span, and returns the
// median duration in seconds: a millisecond-scale time never rests on one
// timer read.
func timeRepeated(spans *spanLog, name string, parent int, fn func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || (len(ds) < maxReps && time.Since(start) < setupBudget) {
		runtime.GC() // each call starts from a collected heap
		sp := spans.begin(name, parent)
		t0 := time.Now()
		err := fn()
		ds = append(ds, time.Since(t0).Seconds())
		spans.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return median(ds), nil
}

// measureTopo times the topology constructor and, for sharded workloads, the
// partition core.Run computes, and records the partition's shape.
func measureTopo(cfg core.Config, spans *spanLog, root int, vals map[string]float64) error {
	var t *topo.Topology
	build, err := timeRepeated(spans, "topo.build", root, func() (err error) {
		t, err = buildTopology(cfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("building topology: %w", err)
	}
	vals["topo.build_s"] = build
	vals["topo.partition_s"] = 0
	vals["core.domains"] = 1
	vals["core.lookahead_ns"] = 0
	if cfg.Shards <= 1 {
		return nil
	}
	var part *topo.Partition
	ps, err := timeRepeated(spans, "topo.partition", root, func() (err error) {
		part, err = topo.NewPartition(t, cfg.Shards)
		return err
	})
	if err != nil {
		return fmt.Errorf("partitioning topology: %w", err)
	}
	vals["topo.partition_s"] = ps
	vals["core.domains"] = float64(part.N)
	vals["core.lookahead_ns"] = float64(part.Lookahead)
	return nil
}

// layerLedger fills the traced run's per-layer metrics: self CPU per packet
// from the profiled simulations, counts from the first good simulation,
// runtime costs from the untraced simulations, and the tracing overhead from
// the comparison of the two halves.
func layerLedger(vals map[string]float64, first *core.Result, plain, profiled []simSample, layerNS map[string]int64) {
	prof := sum(profiled)
	var total float64
	for _, l := range layers {
		v := ratio(float64(layerNS[l]), float64(prof.pkts))
		vals[l+".self_ns_per_pkt"] = v
		total += v
	}
	vals["trace.cpu_ns_per_pkt"] = prof.cpuPerPkt()
	vals["trace.coverage"] = ratio(total, prof.cpuPerPkt())
	all := sum(plain)
	vals["trace.overhead_frac"] = 0
	if pps := all.pktsPerSec(); pps > 0 {
		vals["trace.overhead_frac"] = 1 - prof.pktsPerSec()/pps
	}
	vals["runtime.allocs_per_pkt"] = ratio(float64(all.rt.allocs), float64(all.pkts))
	vals["runtime.alloc_bytes_per_pkt"] = ratio(float64(all.rt.allocBytes), float64(all.pkts))
	vals["runtime.gc_cycles"] = ratio(float64(all.rt.gcCycles), float64(len(plain)))
	vals["runtime.gc_cpu_frac"] = ratio(all.rt.gcCPU, all.cpu.Seconds())
	vals["core.cores_busy"] = ratio(all.cpu.Seconds(), all.wall.Seconds())

	s := first.Summary
	pk := float64(s.PacketsSent)
	e := first.Engine
	vals["sim.events_per_pkt"] = ratio(float64(e.Events), pk)
	vals["sim.peak_pending"] = float64(e.PeakPending)
	vals["sim.free_list_hit_rate"] = e.FreeListHitRate()
	vals["sim.tombstoned_pops_per_pkt"] = ratio(float64(e.TombstonedPops), pk)
	vals["fabric.train_seg_frac"] = ratio(float64(first.Trains.Segments), pk)
	vals["fabric.train_inval_frac"] = ratio(float64(first.Trains.Invalidated), float64(first.Trains.Trains))
	vals["fabric.deflections_per_pkt"] = ratio(float64(s.Deflections), pk)
	vals["fabric.drops_per_pkt"] = ratio(float64(s.Drops), pk)
	vals["fabric.mean_hops"] = s.MeanHops
	vals["host.reorder_frac"] = s.ReorderRate
	vals["transport.retx_per_pkt"] = ratio(float64(s.Retransmits), pk)
	vals["transport.rtos"] = float64(s.RTOs)
	vals["packet.recycle_rate"] = first.Pool.RecycleRate()
	vals["packet.slabs"] = float64(first.Pool.Slabs)
	vals["metrics.flows_started"] = float64(s.FlowsStarted)
	vals["metrics.flow_completion_frac"] = s.FlowCompletionP / 100
	vals["faults.events"] = float64(s.FaultEvents)
	vals["faults.fib_installs"] = float64(s.FIBInstalls)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// appendRecord adds rec as one JSON line to the results file at path.
func appendRecord(path string, rec *record) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("recording result: %w", cerr)
		}
	}()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	return nil
}
