package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the host measurements a user of the simulator sees, printed
// by every untraced run.
var endToEnd = []metricDef{
	{"pkts_per_s", "pkts/s"},
	{"cpu_ns_per_pkt", "ns/pkt"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
}

// perLayer are the traced run's metrics: each layer's self CPU per packet
// from the profile, then counts from core.Result and the runtime, the
// simulated outcomes (model.*), and the trace's own accounting.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ns_per_pkt", "ns/pkt"})
	}
	return append(defs, []metricDef{
		{"sim.events_per_pkt", "events/pkt"},
		{"sim.peak_pending", "events"},
		{"sim.free_list_hit_rate", "frac"},
		{"sim.tombstoned_pops_per_pkt", "pops/pkt"},
		{"fabric.train_seg_frac", "frac"},
		{"fabric.train_inval_frac", "frac"},
		{"fabric.deflections_per_pkt", "defl/pkt"},
		{"fabric.drops_per_pkt", "drops/pkt"},
		{"fabric.mean_hops", "hops"},
		{"host.reorder_frac", "frac"},
		{"transport.retx_per_pkt", "retx/pkt"},
		{"transport.rtos", "count"},
		{"packet.recycle_rate", "frac"},
		{"packet.slabs", "count"},
		{"metrics.flows_started", "count"},
		{"metrics.flow_completion_frac", "frac"},
		{"topo.build_s", "s"},
		{"topo.partition_s", "s"},
		{"faults.events", "count"},
		{"faults.fib_installs", "count"},
		{"core.cores_busy", "cores"},
		{"core.domains", "count"},
		{"core.lookahead_ns", "ns"},
		{"runtime.allocs_per_pkt", "allocs/pkt"},
		{"runtime.alloc_bytes_per_pkt", "B/pkt"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"model.pkts_sent", "pkts"},
		{"model.flows_started", "count"},
		{"model.drops", "pkts"},
		{"model.qct_p99_us", "us"},
		{"model.fct_p99_us", "us"},
		{"trace.cpu_ns_per_pkt", "ns/pkt"},
		{"trace.coverage", "frac"},
		{"trace.overhead_frac", "frac"},
		{"env.steal_frac", "frac"},
		{"env.nproc", "count"},
		{"env.gomaxprocs", "count"},
	}...)
}()

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the values of defs, failing if any is missing: every listed
// metric is printed on every run.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
