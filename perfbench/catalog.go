package main

import "slices"

type metricKind int

const (
	// e2eMetric: reported on every workload in the untraced summary and
	// gated by BENCHMARK.json's bounds: host CPU seconds, memory and
	// set-up CPU seconds, which are never zero on any workload.
	e2eMetric metricKind = iota
	// printedMetric: an end-to-end figure printed where it applies but
	// not in the JSON summary. wall_s is one: on a shared VM hypervisor
	// steal moves it by more than any bound the gate allows, while CPU
	// time is not charged for stolen time. The virtual figures are the
	// others: they repeat exactly per seed, so the digest is their gate.
	printedMetric
	// layerMetric: a per-layer figure, reported in the traced summary on
	// every workload (zero where the workload does not reach the layer).
	layerMetric
)

// metricDef names one metric. The e2e and layer entries mirror
// BENCHMARK.json (TestCatalogMatchesBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit, better string
	kind               metricKind
	// only lists the workloads the metric is printed for (nil: all).
	only []string
	// untraced also prints a layer metric in untraced runs: the
	// host-independent counters and same-run ratios a perf gate can use.
	untraced bool
}

func (m metricDef) appliesTo(workload string) bool {
	if m.only == nil {
		return true
	}
	for _, w := range m.only {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	wGC     = "gc-parallel"
	wYCSB   = "ycsb-mutator"
	wFleet  = "fleet-serve"
	wOracle = "selfcheck"
)

var (
	onGC     = []string{wGC}
	onYCSB   = []string{wYCSB}
	onSim    = []string{wGC, wYCSB}
	onFleet  = []string{wFleet}
	onOracle = []string{wOracle}
)

var catalog = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", kind: e2eMetric},
	{name: "cpu_s", unit: "s", better: "lower", kind: e2eMetric},
	{name: "host_alloc_mib", unit: "MiB", better: "lower", kind: e2eMetric},
	{name: "host_rss_mib", unit: "MiB", better: "lower", kind: e2eMetric},

	{name: "wall_s", unit: "s", better: "lower", kind: printedMetric},

	{name: "sim_ops_per_s", unit: "1/s", better: "higher", kind: printedMetric, only: onSim},
	{name: "sim_gc_pause_ms", unit: "ms", better: "lower", kind: printedMetric, only: onSim},
	{name: "fleet_p999_ms", unit: "ms", better: "lower", kind: printedMetric, only: onFleet},
	{name: "fleet_capacity_kqps", unit: "kqps", better: "higher", kind: printedMetric, only: onFleet},

	{name: "memsim.device_ops", unit: "count", better: "lower", kind: layerMetric, only: onSim, untraced: true},
	{name: "memsim.host_ns_per_device_op", unit: "ns", better: "lower", kind: layerMetric, only: onSim},
	{name: "memsim.llc_hits", unit: "count", better: "higher", kind: layerMetric, only: onSim},
	{name: "memsim.llc_misses", unit: "count", better: "lower", kind: layerMetric, only: onSim},
	{name: "memsim.llc_hit_ratio", unit: "ratio", better: "higher", kind: layerMetric, only: onSim},
	{name: "memsim.llc_writebacks", unit: "count", better: "lower", kind: layerMetric, only: onSim},
	{name: "memsim.llc_prefetch_promotions", unit: "count", better: "higher", kind: layerMetric, only: onSim},
	{name: "memsim.nvm_read_mib", unit: "MiB", better: "lower", kind: layerMetric, only: onSim},
	{name: "memsim.nvm_write_mib", unit: "MiB", better: "lower", kind: layerMetric, only: onSim},
	{name: "memsim.dram_read_mib", unit: "MiB", better: "lower", kind: layerMetric, only: onSim},
	{name: "memsim.dram_write_mib", unit: "MiB", better: "lower", kind: layerMetric, only: onSim},

	{name: "heap.fill_s", unit: "s", better: "lower", kind: layerMetric, only: onGC},
	{name: "heap.objects_allocated", unit: "count", better: "higher", kind: layerMetric, only: onGC},
	{name: "heap.verify_s", unit: "s", better: "lower", kind: layerMetric},

	{name: "gc.young_s", unit: "s", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.mixed_s", unit: "s", better: "lower", kind: layerMetric, only: onGC},
	{name: "gc.full_s", unit: "s", better: "lower", kind: layerMetric, only: onYCSB},
	{name: "gc.collections", unit: "count", better: "higher", kind: layerMetric, only: onSim},
	{name: "gc.host_ms_per_gc.vanilla", unit: "ms", better: "lower", kind: layerMetric, only: onGC},
	{name: "gc.host_ms_per_gc.writecache", unit: "ms", better: "lower", kind: layerMetric, only: onGC},
	{name: "gc.host_ms_per_gc.all", unit: "ms", better: "lower", kind: layerMetric, only: onGC},
	{name: "gc.host_ratio_all_vs_vanilla", unit: "ratio", better: "lower", kind: layerMetric, only: onGC, untraced: true},
	{name: "gc.copied_mib_per_host_s", unit: "MiB/s", better: "higher", kind: layerMetric, only: onSim},
	{name: "gc.host_allocs_per_gc", unit: "count", better: "lower", kind: layerMetric, only: onSim, untraced: true},
	{name: "gc.host_kib_per_gc", unit: "KiB", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.sim_pause_ms", unit: "ms", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.sim_read_mostly_ms", unit: "ms", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.sim_write_only_ms", unit: "ms", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.sim_cleanup_ms", unit: "ms", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.stolen_slots", unit: "count", better: "higher", kind: layerMetric, only: onSim},
	{name: "gc.wasted_copies", unit: "count", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.headermap_hits", unit: "count", better: "higher", kind: layerMetric, only: onSim},
	{name: "gc.headermap_fallbacks", unit: "count", better: "lower", kind: layerMetric, only: onSim},
	{name: "gc.cache_fallback_mib", unit: "MiB", better: "lower", kind: layerMetric, only: onSim},

	{name: "workload.run_s", unit: "s", better: "lower", kind: layerMetric, only: onYCSB},
	{name: "workload.mutator_s", unit: "s", better: "lower", kind: layerMetric, only: onYCSB},
	{name: "workload.ops_per_host_s", unit: "1/s", better: "higher", kind: layerMetric, only: onYCSB},
	{name: "workload.gc_share", unit: "ratio", better: "lower", kind: layerMetric, only: onSim},
	{name: "workload.ops", unit: "count", better: "higher", kind: layerMetric, only: onYCSB},
	{name: "workload.sim_alloc_mib", unit: "MiB", better: "higher", kind: layerMetric, only: onYCSB},

	{name: "fleet.instances_s", unit: "s", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.serve_s", unit: "s", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.serve_probes", unit: "count", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.requests_per_host_s", unit: "1/s", better: "higher", kind: layerMetric, only: onFleet},
	{name: "fleet.hedged", unit: "count", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.retries", unit: "count", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.late", unit: "count", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.sim_p99_ms", unit: "ms", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.sim_p999_ms", unit: "ms", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.sim_p9999_ms", unit: "ms", better: "lower", kind: layerMetric, only: onFleet},
	{name: "fleet.capacity_kqps.vanilla", unit: "kqps", better: "higher", kind: layerMetric, only: onFleet},
	{name: "fleet.capacity_kqps.all", unit: "kqps", better: "higher", kind: layerMetric, only: onFleet},
	{name: "fleet.capacity_kqps.persistent", unit: "kqps", better: "higher", kind: layerMetric, only: onFleet},

	{name: "par.cpu_util", unit: "ratio", better: "higher", kind: layerMetric},

	{name: "oracle.generate_s", unit: "s", better: "lower", kind: layerMetric, only: onOracle},
	{name: "oracle.replay_s.g1", unit: "s", better: "lower", kind: layerMetric, only: onOracle},
	{name: "oracle.replay_s.ps", unit: "s", better: "lower", kind: layerMetric, only: onOracle},
	{name: "oracle.replay_s.fault", unit: "s", better: "lower", kind: layerMetric, only: onOracle},
	{name: "oracle.seed_ms_p50", unit: "ms", better: "lower", kind: layerMetric, only: onOracle},
	{name: "oracle.seed_ms_max", unit: "ms", better: "lower", kind: layerMetric, only: onOracle},
	{name: "oracle.traces", unit: "count", better: "higher", kind: layerMetric, only: onOracle},
	{name: "oracle.failures", unit: "count", better: "lower", kind: layerMetric, only: onOracle},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower", kind: layerMetric},
}

func isLayer(name string) bool {
	for _, m := range catalog {
		if m.name == name {
			return m.kind == layerMetric
		}
	}
	return false
}

// div is a/b, or 0 when b is 0 (a layer the round did not reach).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// roundMetrics computes every catalog metric one round yields, from its
// meters, its recorded values and (in a traced round) its spans. The run
// aggregates rounds by median; host_rss_mib and trace.overhead_frac are
// whole-run figures filled in by aggregate.
func roundMetrics(r *round) map[string]float64 {
	var spans []Span
	if r.tr != nil {
		spans = r.tr.spans
	}
	self, total := selfTimes(spans), totalTimes(spans)
	v := r.values
	wall := r.work.wall.Seconds()
	ops := v["memsim.device_ops"]
	ngc := v["gc.collections"]
	m := map[string]float64{
		"wall_s":         wall,
		"setup_s":        r.setup.cpu.Seconds(),
		"cpu_s":          r.work.cpu.Seconds(),
		"host_alloc_mib": float64(r.setup.bytes+r.work.bytes) / (1 << 20),

		"sim_ops_per_s":       div(ops, wall),
		"sim_gc_pause_ms":     div(v["gc.sim_pause_ms"], ngc),
		"fleet_p999_ms":       v["fleet.sim_p999_ms"],
		"fleet_capacity_kqps": v["fleet.capacity_kqps.all"],

		"memsim.host_ns_per_device_op": div(wall*1e9, ops),
		"memsim.llc_hit_ratio":         div(v["memsim.llc_hits"], v["memsim.llc_hits"]+v["memsim.llc_misses"]),

		"heap.fill_s":   self["heap.fill"],
		"heap.verify_s": r.verify.wall.Seconds(),

		"gc.young_s":                   self["gc.young"],
		"gc.mixed_s":                   self["gc.mixed"],
		"gc.full_s":                    self["gc.full"],
		"gc.host_ms_per_gc.vanilla":    1e3 * div(v["gc.host_s.vanilla"], v["gc.n.vanilla"]),
		"gc.host_ms_per_gc.writecache": 1e3 * div(v["gc.host_s.writecache"], v["gc.n.writecache"]),
		"gc.host_ms_per_gc.all":        1e3 * div(v["gc.host_s.all"], v["gc.n.all"]),
		"gc.copied_mib_per_host_s":     div(v["gc.copied_mib"], v["gc.host_s"]),
		"gc.host_allocs_per_gc":        div(v["gc.host_allocs"], ngc),
		"gc.host_kib_per_gc":           div(v["gc.host_bytes"]/1024, ngc),
		"gc.sim_pause_ms":              div(v["gc.sim_pause_ms"], ngc),
		"gc.sim_read_mostly_ms":        div(v["gc.sim_read_mostly_ms"], ngc),
		"gc.sim_write_only_ms":         div(v["gc.sim_write_only_ms"], ngc),
		"gc.sim_cleanup_ms":            div(v["gc.sim_cleanup_ms"], ngc),

		"workload.run_s":          total["workload.run"],
		"workload.mutator_s":      self["workload.run"],
		"workload.ops_per_host_s": div(v["workload.ops"], total["workload.run"]),
		"workload.gc_share":       div(v["gc.host_s"], wall),

		"fleet.instances_s":         self["fleet.instances"],
		"fleet.serve_s":             self["fleet.serve"],
		"fleet.requests_per_host_s": div(v["fleet.requests"], total["fleet.serve"]),

		"par.cpu_util": div(r.work.cpu.Seconds(), wall*float64(r.workers)),

		"oracle.generate_s":     total["oracle.generate"],
		"oracle.replay_s.g1":    total["oracle.replay.g1"],
		"oracle.replay_s.ps":    total["oracle.replay.ps"],
		"oracle.replay_s.fault": total["oracle.replay.fault"],
	}
	m["gc.host_ratio_all_vs_vanilla"] = div(m["gc.host_ms_per_gc.all"], m["gc.host_ms_per_gc.vanilla"])
	var seeds []float64
	for _, s := range spans {
		if s.Name == "oracle.seed" {
			seeds = append(seeds, float64(s.End-s.Start)/1e6)
		}
	}
	if len(seeds) > 0 {
		m["oracle.seed_ms_p50"] = median(seeds)
		m["oracle.seed_ms_max"] = slices.Max(seeds)
	}
	// Plain counters pass through under their own names.
	for _, d := range catalog {
		if _, done := m[d.name]; !done && d.kind == layerMetric {
			m[d.name] = v[d.name]
		}
	}
	return m
}
