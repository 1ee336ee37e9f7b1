package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// countNames are the per-layer work counts every workload reports, read
// from the program's public stats after each drive (0 where a workload
// bypasses the layer).
var countNames = []string{
	"sim.events", "sim.epochs", "sim.msgs", "sim.cross_wakes",
	"kernel.ctx_switches", "kernel.wakeups", "kernel.spawns",
	"cluster.starts", "cluster.lost",
	"overload.offered", "overload.admitted", "overload.shed", "overload.retried", "overload.dropped",
	"enokic.messages", "vpol.execs", "vpol.steps", "traffic.connections",
}

// perCount pairs a layer's self time with the count it is normalized by.
// Only the sim and kernel ones go into the JSON result: every workload
// loads those two layers. The others are 0 by construction on workloads
// that bypass their layer, so they are printed on the report lines only,
// like the spans.
var perCount = []struct {
	name, layer, count string
	json               bool
}{
	{"sim.self_ns_per_event", "sim", "sim.events", true},
	{"kernel.self_ns_per_ctx_switch", "kernel", "kernel.ctx_switches", true},
	{"cluster.self_ns_per_start", "cluster", "cluster.starts", false},
	{"overload.self_ns_per_offer", "overload", "overload.offered", false},
	{"enokic.self_ns_per_message", "enokic", "enokic.messages", false},
	{"vpol.self_ns_per_exec", "vpol", "vpol.execs", false},
	{"traffic.self_ns_per_connection", "traffic", "traffic.connections", false},
}

// spanNames are the spans around the benchmark's own calls into the
// program, with their units; each workload makes only some of the calls.
var spanNames = map[string]string{
	"cluster.new_s":             "s",
	"cluster.submit_ns_per_job": "ns",
	"system.new_s":              "s",
	"system.attach_s":           "s",
	"system.spawn_s":            "s",
}

// layerMetrics assembles the per-layer metrics of a traced run: the ones
// for the JSON result, and all of them for the report lines. Counts and
// spans come from every iteration; self time, slice times and CPU
// utilization from the traced ones.
func layerMetrics(its []iteration, slices []float64, sp spans, prof *profile) (jsonMetrics, all map[string]metric) {
	all = make(map[string]metric)
	first := its[0].out
	for _, n := range countNames {
		all[n] = metric{first.counts[n], "count"}
	}
	all["runtime.gc_cycles"] = metric{median(pick(its, true, func(it iteration) float64 { return float64(it.gcs) })), "count"}

	total := float64(prof.totalNS)
	frac := func(ns int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(ns) / total
	}
	for _, l := range layers {
		all[l+".self_frac"] = metric{frac(prof.selfNS[l]), "frac"}
	}
	all["runtime.gc_frac"] = metric{frac(prof.rtNS["gc"]), "frac"}
	all["runtime.sync_frac"] = metric{frac(prof.rtNS["sync"]), "frac"}
	all["runtime.alloc_frac"] = metric{frac(prof.rtNS["alloc"]), "frac"}

	traced := float64(len(pick(its, true, rate)))
	reportOnly := make(map[string]bool)
	for _, p := range perCount {
		v := 0.0
		if n := first.counts[p.count] * traced; n > 0 {
			v = float64(prof.selfNS[p.layer]) / n
		}
		all[p.name] = metric{v, "ns"}
		reportOnly[p.name] = !p.json
	}

	var cpu, wall time.Duration
	for _, it := range its {
		if it.traced {
			cpu += it.cpu
			wall += it.wall
		}
	}
	all["proc.cpu_util"] = metric{cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))), "frac"}
	all["run.slice_ms_p50"] = metric{quantile(slices, 0.50), "ms"}
	all["run.slice_ms_p99"] = metric{quantile(slices, 0.99), "ms"}

	tracedRate := median(pick(its, true, rate))
	plainRate := median(pick(its, false, rate))
	all["trace.units_per_s"] = metric{tracedRate, "1/s"}
	all["trace.overhead_frac"] = metric{1 - tracedRate/plainRate, "frac"}

	for n, unit := range spanNames {
		all[n] = metric{median(sp[n]), unit}
		reportOnly[n] = true
	}

	jsonMetrics = make(map[string]metric)
	for n, m := range all {
		if !reportOnly[n] {
			jsonMetrics[n] = m
		}
	}
	return jsonMetrics, all
}

// layerLines renders the per-layer report: every metric, including the
// ones the JSON leaves out, after the profile's sample count.
func layerLines(all map[string]metric, prof *profile) string {
	return fmt.Sprintf("# profile: %d samples, %.3fs CPU\n", prof.samples, float64(prof.totalNS)/1e9) +
		metricLines(all)
}

// metricLines renders one "name value unit" line per metric, sorted by
// name.
func metricLines(ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	return b.String()
}
