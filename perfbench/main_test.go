package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tinyOptions runs one workload at smoke-test size: the warm-up plus the
// minimum number of measured rounds.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, params: params{seed: 3, tiny: true},
		seconds: 0.001, trace: trace, stateDir: t.TempDir()}
}

type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64
		Unit  string
	} `json:"metrics"`
}

func runTiny(t *testing.T, o options) (int, string, summary) {
	t.Helper()
	w, ok := workloadByName(o.workload)
	if !ok {
		t.Fatalf("no workload %q", o.workload)
	}
	var stdout, stderr bytes.Buffer
	code := execute(o, []workloadDef{w}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), s
}

// TestTinyWorkloads runs every workload untraced and traced at tiny size
// and checks that all checks pass and every metric that applies prints
// by name with its unit, and that the summary carries exactly the
// metrics of its kind.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				code, out, s := runTiny(t, tinyOptions(t, w.name, trace))
				if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("exit %d, summary %+v\n%s", code, s, out)
				}
				if !strings.Contains(out, "\nfail_frac 0 ratio\n") {
					t.Errorf("no zero fail_frac line:\n%s", out)
				}
				for _, m := range catalog {
					wantLine := m.appliesTo(w.name) &&
						(m.kind == layerMetric && (trace || m.untraced) || m.kind != layerMetric && !trace)
					if wantLine && !strings.Contains(out, "\n"+m.name+" ") {
						t.Errorf("metric %s not printed:\n%s", m.name, out)
					}
					if wantLine && !lineHasUnit(out, m.name, m.unit) {
						t.Errorf("metric %s printed without unit %s", m.name, m.unit)
					}
					inSummary := trace && m.kind == layerMetric || !trace && m.kind == e2eMetric
					got, ok := s.Metrics[m.name]
					if ok != inSummary {
						t.Errorf("metric %s in summary: %v, want %v", m.name, ok, inSummary)
					}
					if ok && got.Unit != m.unit {
						t.Errorf("metric %s unit %q in summary, want %q", m.name, got.Unit, m.unit)
					}
					if ok && m.kind == e2eMetric && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func lineHasUnit(out, name, unit string) bool {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestDigestMismatchFails plants a wrong digest record for the run's
// seed: the next run must report the mismatch as a failure and exit
// non-zero, while an untouched record must keep passing.
func TestDigestMismatchFails(t *testing.T) {
	o := tinyOptions(t, wYCSB, false)
	if code, out, _ := runTiny(t, o); code != 0 {
		t.Fatalf("first run failed:\n%s", out)
	}
	if code, out, _ := runTiny(t, o); code != 0 {
		t.Fatalf("second run of the same seed failed:\n%s", out)
	}
	recs, err := filepath.Glob(filepath.Join(o.stateDir, "digests", "*"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("digest records %v (%v), want one", recs, err)
	}
	if err := os.WriteFile(recs[0], []byte("0123456789abcdef\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, s := runTiny(t, o)
	if code == 0 || s.Correct || s.Failed == 0 || len(s.Metrics) != 0 {
		t.Fatalf("mismatched digest not reported: exit %d, summary %+v\n%s", code, s, out)
	}
	if !strings.Contains(out, "FAIL "+wYCSB+": digest") {
		t.Errorf("no digest failure line:\n%s", out)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists in
// step with the metrics the command reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []spec
	for _, m := range catalog {
		switch m.kind {
		case e2eMetric:
			e2e = append(e2e, spec{m.name, m.unit, m.better})
		case layerMetric:
			layer = append(layer, spec{m.name, m.unit, m.better})
		}
	}
	if !slices.Equal(doc.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, catalog %v", doc.EndToEnd, e2e)
	}
	if !slices.Equal(doc.PerLayer, layer) {
		t.Errorf("per_layer %v, catalog %v", doc.PerLayer, layer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, command has %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestSelfTimes checks that a span's self time subtracts the union of
// its children, so overlapping parallel children are not counted twice.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self["parent"]*1e9, 100.0-40-10; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("parent self time %g ns, want %g", got, want)
	}
	if got, want := totalTimes(spans)["child"]*1e9, 30.0+20+30; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("child total %g ns, want %g", got, want)
	}
}
