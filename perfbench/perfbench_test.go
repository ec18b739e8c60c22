package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// tiny shrinks each workload to a small circuit or SOC so a whole run
// takes well under a second.
func tiny(def workloadDef) workloadDef {
	if def.kind == kindNoisySOC {
		def.cfg = config{soc: "socmini", groups: 4, faults: 6, samples: 2}
	} else {
		def.cfg = config{circuit: "s953", groups: 4, faults: 24, samples: 2}
	}
	return def
}

func runTiny(t *testing.T, def workloadDef, traced bool, wrap func(workload) workload) *result {
	t.Helper()
	dir := t.TempDir()
	w, err := newWorkload(def, filepath.Join(dir, "run", "stores"))
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		w = wrap(w)
	}
	res, err := execute(runConfig{def: def, seed: 7, seconds: 0.01, traced: traced, dir: filepath.Join(dir, "run"), traceDir: dir}, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		def := tiny(def)
		for _, traced := range []bool{false, true} {
			res := runTiny(t, def, traced, nil)
			r := res.report
			if !r.Correct || r.Failed != 0 || r.Attempted < minOps {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d\n%v", def.name, traced, r.Correct, r.Attempted, r.Failed, res.lines)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Fatalf("%s traced=%t: %d metrics, want %d", def.name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Fatalf("%s traced=%t: metric %s = %+v, want unit %s", def.name, traced, m.name, got, m.unit)
				}
			}
			if traced && r.Metrics["trace.unattributed_ratio"].Value >= 0.05 {
				t.Errorf("%s: unattributed share %.3f of operation wall time", def.name, r.Metrics["trace.unattributed_ratio"].Value)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// altered corrupts every study the core path returns.
type altered struct{ workload }

func (a altered) run(ctx context.Context, k int) ([]*core.Study, any, error) {
	studies, keep, err := a.workload.run(ctx, k)
	for _, st := range studies {
		st.Pruned.Candidates++
	}
	return studies, keep, err
}

func TestAlteredStudyCountsAsFailure(t *testing.T) {
	def := tiny(workloads[2])
	res := runTiny(t, def, false, func(w workload) workload { return altered{w} })
	r := res.report
	if r.Correct || r.Failed != r.Attempted || r.Attempted == 0 {
		t.Fatalf("altered studies: correct=%t attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}
