// Command perfbench is the simulator's end-to-end benchmark. It drives
// four workloads built from the public functions of memsim, heap, gc,
// workload, fleet and check/oracle, measures the host cost of a fixed
// unit of simulated work (a "round") repeated for the requested number of
// seconds, verifies every virtual output, and prints one metric per line
// followed by a one-line JSON summary:
//
//	perfbench --workload gc-parallel --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the rounds alternate between untraced and traced runs;
// the traced ones record a span around every call into a layer and the
// summary carries the per-layer metrics instead of the end-to-end ones.
// NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nvmgc/internal/memsim"
)

// params are one run's inputs: everything a workload generates derives
// from seed; tiny shrinks every workload to smoke-test size.
type params struct {
	seed uint64
	tiny bool
}

// workloadDef is one named workload. run performs a single round: it
// builds its machines (setup), runs the fixed simulated work (timed),
// and checks every output (verify), recording values and the digest.
type workloadDef struct {
	name    string
	workers int // host threads the work runs on
	run     func(r *round, p params) error
}

// round is one repetition of a workload's fixed work.
type round struct {
	tr                  *tracer // nil when untraced
	setup, work, verify meter
	values              map[string]float64
	dig                 hash.Hash64
	attempted, failed   int
	failures            []string
	workers             int
}

func newRound(traced bool, workers int) *round {
	r := &round{values: map[string]float64{}, dig: fnv.New64a(), workers: workers}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// digest folds virtual (deterministic) outputs into the round's digest.
func (r *round) digest(vs ...any) {
	fmt.Fprintln(r.dig, vs...)
}

// failf records a failed simulated run.
func (r *round) failf(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records a failed simulated run when ok is false.
func (r *round) check(ok bool, format string, args ...any) {
	if !ok {
		r.failf(format, args...)
	}
}

// timeSetup runs fn as set-up, after an untimed host reset (resetHost).
func (r *round) timeSetup(fn func() error) error {
	resetHost()
	return r.setup.measure(fn)
}

// setupRepeats is how often timeSetupBest repeats its step.
const setupRepeats = 25

// timeSetupBest is timeSetup for a set-up step of only microseconds
// (configuration, where the machines are built inside the calls being
// measured): fn must be idempotent, and the step is repeated and its
// fastest repetition recorded, the estimate of a deterministic
// microsecond step that timer and scheduler jitter disturb least.
func (r *round) timeSetupBest(fn func() error) error {
	resetHost()
	var m meter
	best := time.Duration(math.MaxInt64)
	for i := 0; i < setupRepeats; i++ {
		before := m.cpu
		if err := m.measure(fn); err != nil {
			return err
		}
		best = min(best, m.cpu-before)
	}
	r.setup.cpu += best
	r.setup.bytes += m.bytes / setupRepeats
	return nil
}

// timeWork runs fn as timed work, under a span when name is not empty;
// fn receives the span's ID (0 when untraced) to parent nested spans.
func (r *round) timeWork(name string, fn func(span int)) {
	id := 0
	if name != "" {
		id = r.tr.begin(name, 0)
	}
	r.work.measure(func() error { fn(id); return nil })
	r.tr.end(id)
}

// timeVerify runs an output check outside the timed work.
func (r *round) timeVerify(fn func()) {
	id := r.tr.begin("heap.verify", 0)
	r.verify.measure(func() error { fn(); return nil })
	r.tr.end(id)
}

// deviceTotals folds a machine's per-tier device and LLC counters into
// the round's values and digest.
func (r *round) deviceTotals(m *memsim.Machine) {
	for _, t := range m.Topology().Tiers() {
		s := t.Stats()
		r.values["memsim.device_ops"] += float64(s.ReadOps + s.WriteOps)
		name := t.Name()
		if name == "nvm" || name == "dram" {
			r.values["memsim."+name+"_read_mib"] += mib(s.ReadBytes)
			r.values["memsim."+name+"_write_mib"] += mib(s.WriteBytes)
		}
		r.digest(name, s)
	}
	c := m.LLC.Stats()
	r.values["memsim.llc_hits"] += float64(c.Hits)
	r.values["memsim.llc_misses"] += float64(c.Misses)
	r.values["memsim.llc_writebacks"] += float64(c.Writebacks)
	r.values["memsim.llc_prefetch_promotions"] += float64(c.PrefetchPromotions)
	r.digest("llc", c)
}

func ms(t memsim.Time) float64 { return float64(t) / float64(memsim.Millisecond) }
func mib(b int64) float64      { return float64(b) / (1 << 20) }

var workloads = []workloadDef{gcParallel, ycsbMutator, fleetServe, selfcheck}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// options are the command line.
type options struct {
	workload string
	params
	seconds  float64
	trace    bool
	stateDir string
}

// minRounds is how many measured rounds of each kind (untraced, and in
// trace mode traced) a run makes even when --seconds has run out.
const minRounds = 3

// outcome is one workload run's aggregate.
type outcome struct {
	workload          string
	rounds            []*round
	metrics           map[string]float64
	attempted, failed int
	failures          []string
	digest            string
}

// runWorkload runs round 0 as an unmeasured warm-up (it still checks its
// outputs and fixes the reference digest), then measured rounds until
// the time budget is spent. In trace mode, measured rounds alternate
// traced and untraced so both sides see the same host conditions.
func runWorkload(w workloadDef, o options) *outcome {
	out := &outcome{workload: w.name}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var plain, traced []*round
	for i := 0; ; i++ {
		tr := o.trace && i%2 == 1
		r := newRound(tr, w.workers)
		if err := w.run(r, o.params); err != nil {
			if r.failed == 0 {
				r.attempted++
				r.failed++
			}
			r.failures = append(r.failures, err.Error())
		}
		out.rounds = append(out.rounds, r)
		out.attempted += r.attempted
		out.failed += r.failed
		out.failures = append(out.failures, r.failures...)
		d := fmt.Sprintf("%016x", r.dig.Sum64())
		if i == 0 {
			out.digest = d
		} else if d != out.digest {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("round %d digest %s differs from round 0's %s", i, d, out.digest))
		}
		if out.failed > 0 {
			break
		}
		if i > 0 {
			if tr {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		enough := len(plain) >= minRounds && (!o.trace || len(traced) >= minRounds)
		if enough && time.Now().After(deadline) {
			break
		}
	}
	if out.failed == 0 {
		out.metrics = aggregate(plain, traced)
	}
	return out
}

// aggregate turns per-round figures into the run's metrics: the median
// over untraced rounds for end-to-end and untraced layer figures, the
// median over traced rounds for span-derived layer figures.
func aggregate(plain, traced []*round) map[string]float64 {
	out := map[string]float64{}
	collect := func(rs []*round) map[string][]float64 {
		all := map[string][]float64{}
		for _, r := range rs {
			for k, v := range roundMetrics(r) {
				all[k] = append(all[k], v)
			}
		}
		return all
	}
	for k, vs := range collect(plain) {
		out[k] = median(vs)
	}
	if len(traced) > 0 {
		for k, vs := range collect(traced) {
			if isLayer(k) {
				out[k] = median(vs)
			}
		}
		var pw, tw []float64
		for _, r := range plain {
			pw = append(pw, r.work.wall.Seconds())
		}
		for _, r := range traced {
			tw = append(tw, r.work.wall.Seconds())
		}
		out["trace.overhead_frac"] = median(tw)/median(pw) - 1
	}
	out["host_rss_mib"] = peakRSSMiB()
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to keep repeating measured rounds")
	traceFlag := fs.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	fs.StringVar(&o.stateDir, "state-dir", ".bench_build/perfbench", "directory for digest records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d, want 0 or 1\n", *traceFlag)
		return 2
	}
	o.trace = *traceFlag == 1
	if o.seed == 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seed and --seconds must be positive")
		return 2
	}
	var defs []workloadDef
	if o.workload == "all" {
		defs = workloads
	} else if w, ok := workloadByName(o.workload); ok {
		defs = []workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, workloadNames())
		return 2
	}

	return execute(o, defs, stdout, stderr)
}

// execute runs the workloads and prints their reports, then the JSON
// summary as the last line. It returns the exit code: 0 only when every
// check of every workload passed.
func execute(o options, defs []workloadDef, stdout, stderr io.Writer) int {
	prov := currentProvenance(".")
	attempted, failed := 0, 0
	var last map[string]float64
	for _, w := range defs {
		out := runWorkload(w, o)
		if err := checkDigestRecord(o, prov, out); err != nil {
			out.failed++
			out.failures = append(out.failures, err.Error())
		}
		if o.trace {
			if err := writeSpans(o, out); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		}
		report(stdout, o, prov, out)
		attempted += out.attempted
		failed += out.failed
		last = out.metrics
	}
	metrics := map[string]any{}
	if failed == 0 && len(defs) == 1 {
		for _, m := range catalog {
			if (o.trace && m.kind == layerMetric) || (!o.trace && m.kind == e2eMetric) {
				metrics[m.name] = map[string]any{"value": last[m.name], "unit": m.unit}
			}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report prints provenance, every failure, and every metric that applies
// to the workload, one "name value unit" line each.
func report(w io.Writer, o options, p provenance, out *outcome) {
	fmt.Fprintf(w, "# workload %s seed %d trace %v rounds %d commit %s source %s go %s gomaxprocs %d nproc %d\n",
		out.workload, o.seed, o.trace, len(out.rounds), p.Commit, p.Source, p.GoVersion, p.GOMAXPROCS, p.NumCPU)
	fmt.Fprintf(w, "# digest %s attempted %d failed %d\n", out.digest, out.attempted, out.failed)
	fmt.Fprintf(w, "# round wall_s/cpu_s/setup_s (round 0 is the warm-up; traced rounds marked *):")
	for _, r := range out.rounds {
		mark := ""
		if r.tr != nil {
			mark = "*"
		}
		fmt.Fprintf(w, " %.4f/%.4f/%.3g%s", r.work.wall.Seconds(), r.work.cpu.Seconds(), r.setup.cpu.Seconds(), mark)
	}
	fmt.Fprintln(w)
	for _, f := range out.failures {
		fmt.Fprintf(w, "FAIL %s: %s\n", out.workload, f)
	}
	fmt.Fprintf(w, "fail_frac %s ratio\n", formatValue(div(float64(out.failed), float64(out.attempted))))
	if out.metrics == nil {
		return
	}
	for _, m := range catalog {
		show := m.kind == layerMetric && (o.trace || m.untraced) || m.kind != layerMetric && !o.trace
		if show && m.appliesTo(out.workload) {
			fmt.Fprintf(w, "%s %s %s\n", m.name, formatValue(out.metrics[m.name]), m.unit)
		}
	}
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// checkDigestRecord compares the run's digest with the one recorded by
// an earlier run of the same source, workload, size and seed, and records
// it when there is none: the virtual outputs must repeat exactly across
// runs, not only across the rounds of one run.
func checkDigestRecord(o options, p provenance, out *outcome) error {
	if out.failed > 0 {
		return nil
	}
	dir := filepath.Join(o.stateDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("digest record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-tiny%v-seed%d", p.Source, out.workload, o.tiny, o.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != out.digest {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of this seed", out.digest, got)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(out.digest+"\n"), 0o644)
	default:
		return fmt.Errorf("digest record: %w", err)
	}
}

// writeSpans writes every traced round's spans as one JSON document.
func writeSpans(o options, out *outcome) error {
	type roundSpans struct {
		Round int    `json:"round"`
		Spans []Span `json:"spans"`
	}
	doc := struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Rounds   []roundSpans `json:"rounds"`
	}{Workload: out.workload, Seed: o.seed}
	for i, r := range out.rounds {
		if r.tr != nil {
			doc.Rounds = append(doc.Rounds, roundSpans{Round: i, Spans: r.tr.spans})
		}
	}
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.stateDir, fmt.Sprintf("spans-%s-seed%d.json", out.workload, o.seed))
	return os.WriteFile(path, b, 0o644)
}
