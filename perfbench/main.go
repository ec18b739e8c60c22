// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process for a fixed time
// through the public diagnosis APIs, checks every operation's studies
// against the per-fault reference path, and prints the metrics as one
// JSON object on the last line of standard output:
//
//	perfbench -workload noisy_soc -seed 1 -seconds 30 -trace 0
//
// With -trace 1 it alternates each operation with a traced re-enactment
// and reports the per-layer breakdown instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metricDef names a reported metric; the lists below must match
// BENCHMARK.json (a test checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"faults_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_bytes_per_fault", "bytes"},
}

var perLayer = []metricDef{
	{"benchgen.generate_ms", "ms"},
	{"sim.fault_list_ms", "ms"},
	{"bist.patterns_ms", "ms"},
	{"sim.fault_free_ms", "ms"},
	{"bist.engine_ms", "ms"},
	{"bist.golden_ms", "ms"},
	{"sim.plan_ms", "ms"},
	{"sim.plan_batches", "count"},
	{"sim.plan_fill", "ratio"},
	{"pipeline.lookup_ms", "ms"},
	{"pipeline.store_write_ms", "ms"},
	{"pipeline.store_bytes_written", "bytes"},
	{"pipeline.disk_writes", "count"},
	{"pipeline.store_read_ms", "ms"},
	{"pipeline.store_bytes_read", "bytes"},
	{"pipeline.disk_hits", "count"},
	{"pipeline.disk_misses", "count"},
	{"pipeline.mem_hit_ratio", "ratio"},
	{"pipeline.plan_hit_ratio", "ratio"},
	{"codec.encode_ms", "ms"},
	{"codec.decode_ms", "ms"},
	{"sim.kernel_ms", "ms"},
	{"sim.materialize_ms", "ms"},
	{"soc.kernel_ms", "ms"},
	{"soc.materialize_ms", "ms"},
	{"bist.verdicts_ms", "ms"},
	{"bist.noisy_verdicts_ms", "ms"},
	{"bist.session_runs_per_fault", "count"},
	{"diagnosis.prune_ms", "ms"},
	{"diagnosis.counts_ms", "ms"},
	{"pipeline.executor_idle_ms", "ms"},
	{"core.study_ms", "ms"},
	{"runtime.gc_cpu_ms", "ms"},
	{"trace.op_wall_ms", "ms"},
	{"trace.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed    = flag.Int64("seed", 1, "workload seed: the order in which operations visit the fixed fault samples")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced breakdown and reports the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for store directories and trace files")
	)
	flag.Parse()
	def, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*out, fmt.Sprintf("run-%s-%d", def.name, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	w, err := newWorkload(def, filepath.Join(dir, "stores"))
	if err != nil {
		fatal(err)
	}
	res, err := execute(runConfig{def: def, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir, traceDir: *out}, w)
	if err != nil {
		fatal(err)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	js, err := json.Marshal(res.report)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(js))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
