package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"

	"nvmgc/internal/check"
	"nvmgc/internal/check/oracle"
	"nvmgc/internal/fleet"
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
)

// nproc is the host parallelism the parallel workloads use: never more
// than the CPUs the host has.
var nproc = runtime.NumCPU()

// gcThreads is the simulated GC parallelism of the multi-worker
// workloads: 16 cooperative workers, one running per machine at a time.
const gcThreads = 16

type collectorConfig struct {
	label string
	opt   gc.Options
}

func persistentADR() gc.Options {
	o := gc.Optimized()
	o.Persist = gc.PersistADR
	return o
}

// ---- gc-parallel ----------------------------------------------------------

// gcParallel spends almost all host time in multi-worker collections, so
// it is where memsim's worker handoffs and the header map's spin waits
// cost the most. Host work is serial: one machine at a time.
var gcParallel = workloadDef{name: wGC, workers: 1, run: runGCParallel}

var gcParallelConfigs = []collectorConfig{
	{"vanilla", gc.Vanilla()},
	{"writecache", gc.WithWriteCache()},
	{"all", gc.Optimized()},
}

// gcParallelSize is the per-configuration work: the heap geometry, the
// half-garbage old generation built in set-up, and the collection cycles
// (an eden fill plus a collection; every mixedEvery-th a mixed one).
type gcParallelSize struct {
	heapRegions, edenRegions int
	oldObjects               int
	cycles, mixedEvery       int
}

func gcParallelSizeFor(p params) gcParallelSize {
	if p.tiny {
		return gcParallelSize{heapRegions: 128, edenRegions: 8, oldObjects: 2000, cycles: 2, mixedEvery: 2}
	}
	return gcParallelSize{heapRegions: 512, edenRegions: 24, oldObjects: 20000, cycles: 4, mixedEvery: 4}
}

func runGCParallel(r *round, p params) error {
	for i, c := range gcParallelConfigs {
		if err := gcParallelConfig(r, p, c, uint64(i)); err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
	}
	return nil
}

func gcParallelConfig(r *round, p params, c collectorConfig, stream uint64) error {
	sz := gcParallelSizeFor(p)
	rng := rand.New(rand.NewPCG(p.seed, stream))
	var (
		m    *memsim.Machine
		h    *heap.Heap
		col  *timedG1
		node *heap.Klass
	)
	err := r.timeSetup(func() error {
		mc := memsim.DefaultConfig()
		mc.TraceBucket = 0
		m = memsim.NewMachine(mc)
		hc := heap.DefaultConfig()
		hc.HeapRegions = sz.heapRegions
		hc.EdenRegions = sz.edenRegions
		var err error
		if h, err = heap.New(m, hc); err != nil {
			return err
		}
		g, err := gc.NewG1(h, c.opt)
		if err != nil {
			return err
		}
		col = &timedG1{G1: g, r: r, label: c.label}
		if node, err = h.Klasses.Define("node", 6, []int32{2, 3}); err != nil {
			return err
		}
		// Old generation: every other object rooted (seeded), so mixed
		// collections find half-garbage regions worth evacuating.
		m.Run(1, func(w *memsim.Worker) {
			for j := 0; j < sz.oldObjects; j++ {
				a, ok := h.AllocateOld(w, node, 6)
				if !ok {
					err = fmt.Errorf("old generation full after %d objects: %v", j, h.AllocError())
					return
				}
				if rng.IntN(2) == 0 {
					if _, ok := h.Roots.Add(w, a); !ok {
						err = fmt.Errorf("root set full")
						return
					}
				}
			}
		})
		return err
	})
	if err != nil {
		return err
	}

	var cycleRoots []heap.Address
	for cyc := 0; cyc < sz.cycles; cyc++ {
		var fillErr error
		r.timeWork("heap.fill", func(int) {
			var n int
			cycleRoots, n, fillErr = fillEden(m, h, node, rng, cycleRoots)
			r.values["heap.objects_allocated"] += float64(n)
		})
		if fillErr != nil {
			return fillErr
		}
		var pre heap.GraphSignature
		r.timeVerify(func() { pre = h.Signature() })
		var collectErr error
		r.timeWork("", func(int) { // timedG1 opens the collection's span
			if (cyc+1)%sz.mixedEvery == 0 {
				_, collectErr = col.CollectMixed(gcThreads, 16)
			} else {
				_, collectErr = col.Collect(gcThreads)
			}
		})
		if collectErr != nil {
			return nil // counted as a failed collection by timedG1
		}
		r.timeVerify(func() {
			post := h.Signature()
			r.check(post == pre, "%s cycle %d: graph signature %+v after collection, %+v before", c.label, cyc, post, pre)
			if err := h.CheckInvariants(); err != nil {
				r.failf("%s cycle %d: heap invariants: %v", c.label, cyc, err)
			}
			r.digest(c.label, cyc, post)
		})
	}
	r.deviceTotals(m)
	return nil
}

// fillEden drops the previous cycle's roots (their objects become
// garbage) and fills eden from one worker with seeded chains of objects:
// each links to its predecessor and to a random earlier member, and a
// quarter of the chains are rooted at their tail, so about a quarter of
// eden survives. It returns the new cycle's root slots and the number of
// objects allocated.
func fillEden(m *memsim.Machine, h *heap.Heap, node *heap.Klass, rng *rand.Rand, prevRoots []heap.Address) ([]heap.Address, int, error) {
	var roots []heap.Address
	var err error
	var allocated int
	m.Run(1, func(w *memsim.Worker) {
		for _, s := range prevRoots {
			h.Roots.Clear(w, s)
		}
		var chain []heap.Address
		closeChain := func() {
			if len(chain) > 0 && rng.IntN(4) == 0 {
				if s, ok := h.Roots.Add(w, chain[len(chain)-1]); ok {
					roots = append(roots, s)
				} else {
					err = fmt.Errorf("root set full")
				}
			}
			chain = chain[:0]
		}
		chainLen := 16 + rng.IntN(48)
		for err == nil {
			a, ok := h.AllocateEden(w, node, 6)
			if !ok {
				closeChain()
				return
			}
			allocated++
			if n := len(chain); n > 0 {
				h.SetRefInit(w, a, 2, chain[n-1])
				h.SetRefInit(w, a, 3, chain[rng.IntN(n)])
			}
			chain = append(chain, a)
			if len(chain) == chainLen {
				closeChain()
				chainLen = 16 + rng.IntN(48)
			}
		}
	})
	if aerr := h.AllocError(); aerr != nil && err == nil {
		err = aerr
	}
	return roots, allocated, err
}

// ---- ycsb-mutator ---------------------------------------------------------

// ycsbMutator is the control workload: one simulated GC thread, so
// Machine.Run spawns no goroutines and host time lands in the request
// generators, the keyed runner, heap word ops and the LLC model. A
// scheduler-only change must leave it unchanged.
var ycsbMutator = workloadDef{name: wYCSB, workers: 1, run: runYCSB}

type ycsbScenario struct {
	name  string
	scale float64 // sized so each scenario costs a few hundred host ms
	// fullEvery is the full-GC cadence (gcsim -full-every). ycsb-a needs
	// one on this heap: at the default cadence it exhausts the 16 MiB
	// keyed heap at scale 10 (a known defect, see NOTES.md).
	fullEvery int
}

var ycsbScenarios = []ycsbScenario{{"ycsb-b", 1, 0}, {"ycsb-e", 0.25, 0}, {"ycsb-a", 3, 8}}

func (sc ycsbScenario) scaleFor(p params) float64 {
	if p.tiny {
		return sc.scale / 4
	}
	return sc.scale
}

// keyedHeap is the keyed-population geometry of the workload sweep and
// the fleet instances: 16 MiB in 32 KiB regions with a 3 MiB eden.
func keyedHeap(m *memsim.Machine) (*heap.Heap, error) {
	hc := heap.DefaultConfig()
	hc.RegionBytes = 32 << 10
	hc.HeapRegions = 512
	hc.CacheRegions = 64
	hc.EdenRegions = 96
	hc.SurvivorRegions = 48
	hc.HeapKind = memsim.NVM
	return heap.New(m, hc)
}

func runYCSB(r *round, p params) error {
	for _, sc := range ycsbScenarios {
		spec, err := workload.ScenarioByName(sc.name)
		if err != nil {
			return err
		}
		var (
			m      *memsim.Machine
			h      *heap.Heap
			col    *timedG1
			runner workload.ScenarioRunner
		)
		if err := r.timeSetup(func() error {
			mc := memsim.DefaultConfig()
			mc.TraceBucket = 0
			m = memsim.NewMachine(mc)
			var err error
			if h, err = keyedHeap(m); err != nil {
				return err
			}
			g, err := gc.NewG1(h, gc.Optimized())
			if err != nil {
				return err
			}
			col = &timedG1{G1: g, r: r, label: "all"}
			runner, err = spec.NewRunner(col, workload.Config{
				GCThreads: 1, Scale: sc.scaleFor(p), Seed: p.seed, FullGCEvery: sc.fullEvery,
			})
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		var res workload.Result
		var runErr error
		r.timeWork("workload.run", func(span int) {
			col.parent = span
			res, runErr = runner.Run()
		})
		r.attempted++
		if runErr != nil {
			r.failf("%s: %v", sc.name, runErr)
			return nil
		}
		r.values["workload.ops"] += float64(res.Ops)
		r.values["workload.sim_alloc_mib"] += mib(res.Allocated)
		r.digest(sc.name, res.Ops, res.Total, res.App, res.GC, res.Allocated, len(res.Collections))
		r.timeVerify(func() {
			if err := h.CheckInvariants(); err != nil {
				r.failf("%s: heap invariants after run: %v", sc.name, err)
			}
			r.digest(sc.name, h.Signature())
		})
		r.deviceTotals(m)
	}
	return nil
}

// ---- fleet-serve ----------------------------------------------------------

// fleetServe answers the serving question: each collector configuration
// runs a 4-instance cassandra-write fleet (instances fan out over the
// host CPUs, so two simulated machines run at once), serves the
// reference open-loop load, and searches for the highest rate that keeps
// the fleet p999 within the SLO.
var fleetServe = workloadDef{name: wFleet, workers: nproc, run: runFleet}

var fleetConfigs = []collectorConfig{
	{"vanilla", gc.Vanilla()},
	{"all", gc.Optimized()},
	{"persistent", persistentADR()},
}

const (
	fleetInstances = 4
	fleetRefKQPS   = 240 // reference arrival rate
	fleetSLOms     = 3   // p999 bound for the capacity search
)

// fleetTraffic is the serving-side shape of the fleet experiment:
// cassandra write-phase service, 16-way instances, 256 zipfian tenants,
// a 2 ms hedge and a 2.5 ms retry deadline.
func fleetTraffic(kqps float64, seed uint64) fleet.Traffic {
	return fleet.Traffic{
		QPS: kqps * 1000, Service: 60 * memsim.Microsecond, Servers: 16,
		Tenants: 256, Theta: 0.99,
		HedgeAfter: 2 * memsim.Millisecond, RetryAfter: 2500 * memsim.Microsecond, MaxRetries: 2,
		Seed: seed,
	}
}

type fleetSize struct {
	scale      float64
	step       float64 // capacity search: rate step above the reference (kqps)
	bisections int
}

func fleetSizeFor(p params) fleetSize {
	if p.tiny {
		return fleetSize{scale: 0.1, step: 240, bisections: 1}
	}
	return fleetSize{scale: 0.5, step: 240, bisections: 4}
}

func runFleet(r *round, p params) error {
	sz := fleetSizeFor(p)
	cfgs := make([]fleet.Config, len(fleetConfigs))
	if err := r.timeSetupBest(func() error {
		for i, c := range fleetConfigs {
			cfgs[i] = fleet.Config{
				Instances: fleetInstances, Scenario: "cassandra-write", GCThreads: gcThreads,
				Scale: sz.scale, Seed: p.seed, Opt: c.opt, QPS: fleetRefKQPS * 1000, Parallel: nproc,
			}
			if err := cfgs[i].Validate(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i, c := range fleetConfigs {
		var insts []fleet.Instance
		var runErr error
		r.timeWork("fleet.instances", func(int) { insts, runErr = fleet.RunInstances(cfgs[i]) })
		r.attempted += fleetInstances
		if runErr != nil {
			r.failed += fleetInstances
			r.failures = append(r.failures, fmt.Sprintf("%s instances: %v", c.label, runErr))
			return nil
		}
		for _, in := range insts {
			r.digest(c.label, in.ID, in.Seed, in.Window, in.Ops, in.Allocated, in.GCs, in.MaxPause, in.Pauses)
		}
		serve := func(kqps float64) (*fleet.ServeResult, error) {
			var sr *fleet.ServeResult
			var err error
			r.timeWork("fleet.serve", func(int) { sr, err = fleet.Serve(insts, fleetTraffic(kqps, p.seed)) })
			r.attempted++
			r.values["fleet.serve_probes"]++
			if err != nil {
				r.failf("%s serve at %g kqps: %v", c.label, kqps, err)
				return nil, err
			}
			st := sr.Stats
			r.check(st.Commits == st.Requests, "%s serve at %g kqps: %d commits for %d requests", c.label, kqps, st.Commits, st.Requests)
			r.values["fleet.requests"] += float64(st.Requests)
			r.digest(c.label, kqps, st, sr.Summary)
			return sr, nil
		}
		ref, err := serve(fleetRefKQPS)
		if err != nil {
			return nil
		}
		r.values["fleet.hedged"] += float64(ref.Stats.Hedged)
		r.values["fleet.retries"] += float64(ref.Stats.Retries)
		r.values["fleet.late"] += float64(ref.Stats.Late)
		if c.label == "all" {
			r.values["fleet.sim_p99_ms"] = ref.Summary.P99ms
			r.values["fleet.sim_p999_ms"] = ref.Summary.P999ms
			r.values["fleet.sim_p9999_ms"] = ref.Summary.P9999ms
		}
		capacity, err := capacitySearch(serve, ref, sz)
		if err != nil {
			return nil
		}
		r.values["fleet.capacity_kqps."+c.label] = capacity
	}
	return nil
}

// capacitySearch finds the highest arrival rate (kqps) at which the
// fleet keeps p999 within the SLO with no request past its last retry
// deadline. Starting from the reference probe it steps the rate up until
// a probe fails (or bisects below the reference if that one fails), then
// bisects a fixed number of times. Every probe is a full Serve call; the
// overloaded ones are where the router's hedge and retry work goes.
func capacitySearch(serve func(kqps float64) (*fleet.ServeResult, error), ref *fleet.ServeResult, sz fleetSize) (float64, error) {
	meets := func(sr *fleet.ServeResult) bool {
		return sr.Summary.P999ms <= fleetSLOms && sr.Stats.Late == 0
	}
	probe := func(kqps float64) (bool, error) {
		sr, err := serve(kqps)
		if err != nil {
			return false, err
		}
		return meets(sr), nil
	}
	lo, hi := 0.0, float64(fleetRefKQPS)
	if meets(ref) {
		for lo = hi; ; lo = hi {
			hi += sz.step
			ok, err := probe(hi)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			if hi >= 16*fleetRefKQPS {
				return hi, nil // never saturates within the search range
			}
		}
	}
	for i := 0; i < sz.bisections; i++ {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// ---- selfcheck ------------------------------------------------------------

// selfcheck runs the differential oracle campaign: thousands of tiny
// machines and collections with the phase-boundary invariant checker on,
// dominated by per-machine and per-collection fixed costs — the opposite
// end of gc from gc-parallel, and the only workload that measures
// check/oracle.
var selfcheck = workloadDef{name: wOracle, workers: nproc, run: runSelfcheck}

const selfcheckOps = 400

func selfcheckRuns(p params) int {
	if p.tiny {
		return 3
	}
	return 64
}

// oracleConfigs are the campaign's replay configurations: the two
// reference replays first, then every real and fault-arm configuration.
func oracleConfigs() []oracle.Config {
	cfgs := []oracle.Config{
		{Name: "ref/2tier", Collector: "ref", Topology: "2tier"},
		{Name: "ref/3tier", Collector: "ref", Topology: "3tier"},
	}
	return append(append(cfgs, oracle.Configs()...), oracle.FaultConfigs()...)
}

// oracleFamily names the span a configuration's replay is timed under.
func oracleFamily(c oracle.Config) string {
	switch {
	case c.Collector == "ref":
		return "oracle.replay.ref"
	case c.Fault.Enabled():
		return "oracle.replay.fault"
	default:
		return "oracle.replay." + c.Collector
	}
}

// runSelfcheck calls oracle.Campaign in an untraced round. A traced
// round cannot see inside Campaign, so it makes the same calls Campaign
// makes per run (GenerateDist, then RunTrace for every configuration and
// a snapshot diff against the reference), fanned out the same way, with
// a span around each; it rebuilds Campaign's report so both kinds of
// round yield the same digest.
func runSelfcheck(r *round, p params) error {
	runs := selfcheckRuns(p)
	var cfgs []oracle.Config
	if err := r.timeSetupBest(func() error {
		cfgs = oracleConfigs()
		if len(cfgs) != 14 {
			return fmt.Errorf("oracle has %d configurations, want 14", len(cfgs))
		}
		return nil
	}); err != nil {
		return err
	}
	var rep *oracle.Report
	var campErr error
	r.timeWork("", func(int) {
		if r.tr == nil {
			rep, campErr = oracle.Campaign(runs, selfcheckOps, p.seed, nproc)
		} else {
			rep, campErr = tracedCampaign(r.tr, cfgs, runs, p.seed)
		}
	})
	r.attempted += runs
	if campErr != nil {
		r.failed += runs
		r.failures = append(r.failures, campErr.Error())
		return nil
	}
	r.values["oracle.traces"] = float64(rep.Runs)
	r.values["oracle.failures"] = float64(len(rep.Failures))
	if !rep.Passed() {
		r.failed += len(rep.Failures)
		for _, f := range rep.Failures {
			r.failures = append(r.failures, f.String())
		}
	}
	r.digest(rep.String())
	return nil
}

// campaignSeed is the seed Campaign gives run i.
func campaignSeed(base uint64, i int) uint64 { return base + uint64(i)*1000003 }

func tracedCampaign(tr *tracer, cfgs []oracle.Config, runs int, base uint64) (*oracle.Report, error) {
	dists := oracle.TraceDists()
	fails, err := par.Map(runs, nproc, func(i int) (*oracle.Failure, error) {
		seed, dist := campaignSeed(base, i), dists[i%len(dists)]
		sid := tr.begin("oracle.seed", 0)
		defer tr.end(sid)
		gid := tr.begin("oracle.generate", sid)
		ops := oracle.GenerateDist(seed, selfcheckOps, dist)
		tr.end(gid)
		refs := map[string]*oracle.Result{}
		for _, c := range cfgs {
			id := tr.begin(oracleFamily(c), sid)
			res, err := oracle.RunTrace(c, ops)
			tr.end(id)
			switch {
			case err != nil:
			case c.Collector != "ref":
				err = diffSnapshots(res, refs[c.Topology])
			default:
				refs[c.Topology] = res
				// The live graph is topology-independent: the reference
				// replays must agree before anything is compared to them.
				if c.Topology == "3tier" {
					err = diffSnapshots(res, refs["2tier"])
				}
			}
			if err != nil {
				return &oracle.Failure{Seed: seed, Dist: dist, Config: c.Name, Err: err.Error()}, nil
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &oracle.Report{Runs: runs, Ops: selfcheckOps, BaseSeed: base}
	for _, c := range cfgs {
		rep.Configs = append(rep.Configs, c.Name)
	}
	for _, f := range fails {
		if f != nil {
			rep.Failures = append(rep.Failures, f)
		}
	}
	return rep, nil
}

func diffSnapshots(got, ref *oracle.Result) error {
	if ref == nil {
		return fmt.Errorf("no reference replay")
	}
	if len(got.Snapshots) != len(ref.Snapshots) {
		return fmt.Errorf("%d snapshots, reference took %d", len(got.Snapshots), len(ref.Snapshots))
	}
	for i := range got.Snapshots {
		if err := check.Diff(got.Snapshots[i], ref.Snapshots[i]); err != nil {
			return fmt.Errorf("snapshot %d: %w", i+1, err)
		}
	}
	return nil
}
