// Command perfbench is the repository's end-to-end benchmark. It drives
// MOSAIC from the outside — the library facade, in-process mosaic-serve
// nodes over loopback HTTP, and the layers' public functions — through
// four workloads:
//
//	corpus   the paper's batch pipeline over a generated Blue-Waters-shaped corpus
//	ingest   one node, closed-loop single-trace POSTs, each waited on until visible
//	query    one node over a 200k-result store, closed-loop reads under a 20/s write stream
//	cluster  three nodes, closed-loop 16-trace batches, then one scatter query
//
// Usage (from the repository root; run.sh builds into .bench_build):
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// It prints a human-readable report, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run repeats
// the workload with collectors attached (reqtrace flight recorder,
// engine span observer, /metrics scrapes), walks the layers one call
// at a time, writes a Chrome trace, and reports per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// workload is one benchmark scenario.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{"corpus", "batch pipeline: decode, funnel and aggregate dominate; no store, serve, index or ring code runs", runCorpus},
	{"ingest", "every trace pays the whole journey: decode, content address, fsync, queue, categorize+explain, persist, index", runIngest},
	{"query", "index and store read path under a live write stream; working set far above the store cache", runQuery},
	{"cluster", "ring routing, forwarding, replication, scatter-gather and the batch endpoint on three nodes", runCluster},
}

// runCtx carries one run's settings.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // benchmark work directory (caches, stores, traces)
	cache   string // generated-input cache, shared across runs
	scratch string // this run's stores; removed when the run ends
	nproc   int
}

// setups is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up (a cold cache) does not move it.
const setups = 5

// tally counts operations attempted and failed, and keeps the first
// few failure descriptions for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

func (t *tally) add(o *tally) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 10 {
			t.notes = append(t.notes, n)
		}
	}
}

// outcome is everything one run reports.
type outcome struct {
	tally
	e2e    []metric // the gated end-to-end metrics (see endToEndMetrics)
	report []metric // the workload's own metrics, printed with sample counts
	env    []string // input sizes and other facts about this run
	layers *layerReport
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: corpus, ingest, query or cluster")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		work    = flag.String("work", ".bench_build/perfbench-work", "work directory for caches, stores and traces")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, work string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	abs, err := filepath.Abs(work)
	if err != nil {
		return err
	}
	rc := &runCtx{
		seed: seed, seconds: seconds, trace: trace, work: abs,
		cache: filepath.Join(abs, "cache"), nproc: runtime.NumCPU(),
	}
	if err := os.MkdirAll(rc.cache, 0o755); err != nil {
		return err
	}
	rc.scratch, err = os.MkdirTemp(abs, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rc.scratch)

	o, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printReport(w, rc, o)
	return printJSON(o, trace)
}

func printReport(w *workload, rc *runCtx, o *outcome) {
	fmt.Printf("workload %s (seed %d, %gs timed): %s\n", w.name, rc.seed, rc.seconds, w.why)
	for _, line := range environment(rc) {
		fmt.Println("env", line)
	}
	for _, line := range o.env {
		fmt.Println("env", line)
	}
	fmt.Println("end-to-end metrics (gated):")
	for _, m := range o.e2e {
		printMetric(m)
	}
	fmt.Println("workload metrics:")
	for _, m := range o.report {
		printMetric(m)
	}
	if o.layers != nil {
		o.layers.print(os.Stdout)
	}
	verdict := "PASS"
	if o.failed > 0 || o.attempted == 0 {
		verdict = "FAIL"
	}
	fmt.Printf("operations attempted %d failed %d; correctness %s\n", o.attempted, o.failed, verdict)
	for _, n := range o.notes {
		fmt.Println("  failure:", n)
	}
}

func printMetric(m metric) {
	if m.Refused != "" {
		fmt.Printf("  %-28s %14s %-6s n=%d %s\n", m.Name, "-", m.Unit, m.N, m.Refused)
	} else if m.N > 0 {
		fmt.Printf("  %-28s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	} else {
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(o *outcome, trace bool) error {
	ms := make(map[string]jsonMetric)
	if trace {
		if o.layers == nil {
			return fmt.Errorf("traced run produced no layer report")
		}
		for _, l := range perLayer {
			v, ok := o.layers.values[l.name]
			if !ok {
				return fmt.Errorf("traced run did not measure %s", l.name)
			}
			ms[l.name] = jsonMetric{v, l.unit}
		}
	} else {
		for _, m := range o.e2e {
			ms[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// sortedLabels returns labels sorted, for set comparison.
func sortedLabels(ls []string) string {
	c := append([]string(nil), ls...)
	sort.Strings(c)
	return strings.Join(c, ",")
}
