// Command perfbench is the repository's end-to-end benchmark. It runs a
// named workload (or all four in turn), checks that the system's answers
// are correct, and prints one JSON line per workload with the metrics:
//
//	bash perfbench/run.sh --workload churn --seed 7 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 7 --seconds 10 --trace 0
//
// Workloads: partition (root-package library API on the TW analogue),
// lookup, churn and replicate (a spinnerd built from this checkout,
// driven over HTTP through internal/api/client). With --trace 0 the
// line carries the end-to-end metrics; with --trace 1 the same workload
// runs untraced and then again with the layers hosted in-process and
// timed at their boundaries, and the line carries the per-layer metrics.
// README.md defines every metric per workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rate", "1/s"},
	{"phi", "ratio"},
	{"rho", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the traced run's metrics, grouped by the layer they time.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"graph.build_s", "s"}, {"graph.convert_s", "s"},

	{"pregel.messages", "count"}, {"pregel.supersteps", "count"},
	{"pregel.superstep_p50_ms", "ms"}, {"pregel.superstep_max_ms", "ms"},
	{"pregel.alloc_mb", "MiB"},

	{"core.partition_s", "s"}, {"core.adapt_s", "s"}, {"core.resize_s", "s"},
	{"core.iterations", "count"}, {"core.first_iteration_ms", "ms"},
	{"core.iteration_self_p50_ms", "ms"},
	{"core.adapt_iterations", "count"}, {"core.adapt_messages", "count"},
	{"core.adapt_difference", "ratio"},
	{"core.resize_iterations", "count"}, {"core.resize_messages", "count"},
	{"core.resize_difference", "ratio"}, {"core.rho_over_c", "count"},
	{"core.worst_rho", "ratio"},

	{"serve.restabs_per_kbatch", "count"}, {"serve.migrated_per_restab", "count"},
	{"serve.midrun_snapshots", "count"},

	{"client.lookup_rtt_p50_us", "us"}, {"client.lookup_rtt_p99_us", "us"},
	{"client.lookup_self_p50_us", "us"},
	{"api.lookup_handler_p50_us", "us"}, {"api.lookup_alloc_bytes", "B"},
	{"api.http_lookup_p99_us", "us"},

	{"client.mutate_rtt_p50_us", "us"}, {"client.mutate_self_p50_us", "us"},
	{"api.mutate_handler_p50_us", "us"},
	{"api.watch_fanout_p99_us", "us"}, {"api.watch_bytes_per_batch", "B"},

	{"serve.lookup_ns", "ns"}, {"serve.snapshot_us", "us"},

	{"serve.stage_drain_p99_us", "us"}, {"serve.stage_apply_p50_us", "us"},
	{"serve.stage_apply_p99_us", "us"}, {"serve.stage_publish_p99_us", "us"},
	{"serve.coalesce_ratio", "ratio"}, {"serve.deltas_per_batch", "count"},
	{"serve.log_full_ratio", "ratio"}, {"serve.rejected_batches", "count"},
	{"serve.staleness_batches", "count"}, {"serve.cut_drift", "count"},
	{"serve.cpu_us_per_op", "us"},
	{"client.churn_lookup_p50_ms", "ms"}, {"client.churn_lookup_p99_ms", "ms"},

	{"wal.stage_journal_p50_us", "us"}, {"wal.stage_journal_p99_us", "us"},
	{"wal.group_depth", "count"}, {"wal.syncs_per_batch", "count"},
	{"wal.journal_bytes_per_batch", "B"}, {"wal.checkpoint_bytes_per_batch", "B"},
	{"wal.checkpoint_capture_p99_ms", "ms"}, {"wal.checkpoint_write_p99_ms", "ms"},
	{"wal.replayed_records", "count"}, {"wal.recovery_s", "s"},
	{"wal.disk_bytes_per_batch", "B"},

	{"replica.bootstrap_s", "s"}, {"replica.bytes_per_batch", "B"},
	{"replica.records_applied", "count"}, {"replica.reconnects", "count"},
	{"replica.follower_journal_p99_us", "us"}, {"replica.follower_apply_p99_us", "us"},
	{"replica.label_difference", "ratio"},

	{"load.samples", "count"}, {"load.p90_ms", "ms"},
	{"load.tail_q", "ratio"}, {"load.tail_ms", "ms"},
	{"load.lateness_p99_ms", "ms"}, {"load.lateness_max_ms", "ms"},
	{"load.search_steps", "count"}, {"load.search_misses", "count"},
	{"load.capacity_qps", "1/s"}, {"load.max_write_rate", "1/s"},
	{"host.steal_pct", "%"},

	{"trace.untraced_p50_ms", "ms"}, {"trace.traced_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.spans", "count"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	spinnerd string
	workdir  string
}

// bench is the state of one invocation: where it may write, what it has
// measured and which correctness gates failed.
type bench struct {
	options
	dir   string // this run's private work directory, removed at exit
	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int64
	gateErrs          []error
}

// gate records a failed correctness check; the run then exits non-zero.
func (b *bench) gate(err error) {
	if err != nil {
		b.gateErrs = append(b.gateErrs, err)
		logf("GATE FAILED: %v", err)
	}
}

// count adds finished operations to the attempt and failure totals.
func (b *bench) count(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"partition": runPartition,
	"lookup":    runLookup,
	"churn":     runChurn,
	"replicate": runReplicate,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "partition | lookup | churn | replicate | all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement budget of the run in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.spinnerd, "spinnerd", "", "spinnerd binary built from this checkout")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for generated inputs, data dirs and span files")
	flag.Parse()
	if o.workload != "all" {
		os.Exit(run(o))
	}
	// Every workload in turn, one result line each; the exit code is the
	// worst of theirs.
	code := 0
	for _, w := range []string{"partition", "lookup", "churn", "replicate"} {
		o.workload = w
		code = max(code, run(o))
	}
	os.Exit(code)
}

// run executes one workload and returns the exit code: 0 on success, 1
// when a correctness gate failed (the result line is still printed), 2
// when the benchmark could not run at all (no result line).
func run(o options) int {
	fn, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		logf("usage: --workload partition|lookup|churn|replicate|all --seed N --seconds S --trace 0|1")
		return 2
	}
	if o.workload != "partition" {
		if _, err := os.Stat(o.spinnerd); err != nil {
			logf("spinnerd binary: %v", err)
			return 2
		}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		logf("%v", err)
		return 2
	}
	dir, err := os.MkdirTemp(o.workdir, fmt.Sprintf("run-%s-%d-", o.workload, o.seed))
	if err != nil {
		logf("%v", err)
		return 2
	}
	defer os.RemoveAll(dir)
	b := &bench{options: o, dir: dir, e2e: map[string]float64{}, layer: map[string]float64{}}
	logf("workload=%s seed=%d seconds=%d trace=%d cpus=%d", o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU())
	start := time.Now()
	steal0, total0 := cpuSteal()
	if err := fn(b); err != nil {
		logf("%s: %v", o.workload, err)
		return 2
	}
	steal1, total1 := cpuSteal()
	b.layer["host.steal_pct"] = 100 * (steal1 - steal0) / max(1, total1-total0)
	logf("done in %.1fs; the hypervisor stole %.2f%% of the host's CPU time", time.Since(start).Seconds(), b.layer["host.steal_pct"])
	line, err := b.result()
	if err != nil {
		logf("%v", err)
		return 2
	}
	fmt.Println(line)
	if len(b.gateErrs) > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final JSON line. An end-to-end metric the workload
// failed to measure is a benchmark bug, not a zero.
func (b *bench) result() (string, error) {
	out := resultLine{Correct: len(b.gateErrs) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	if out.Attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	defs, vals := endToEnd, b.e2e
	if b.trace == 1 {
		defs, vals = perLayer, b.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && b.trace == 0 {
			return "", fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// path names a file in the run's work directory.
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// spansPath names the span file of a traced run; it outlives the run
// directory so it can be inspected afterwards.
func (b *bench) spansPath() string {
	return filepath.Join(b.workdir, fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))
}
