package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// perLayer is the per-layer metric set a traced run reports as JSON.
// Every workload measures all of them (the layer walk runs over each
// workload's own inputs), so they are comparable run to run; metrics
// only some workloads exercise (serve queue wait, ring RPCs, engine
// scan and aggregate) appear in the printed share table instead.
var perLayer = []struct{ name, unit string }{
	{"darshan.decode_us", "us"},
	{"darshan.decode_allocs", "count"},
	{"darshan.bytes_per_trace", "B"},
	{"store.tracekey_us", "us"},
	{"store.put_trace_us", "us"},
	{"store.put_result_us", "us"},
	{"store.put_explanation_us", "us"},
	{"store.bytes_written_per_trace", "B"},
	{"store.get_result_us", "us"},
	{"store.open_s", "s"},
	{"core.categorize_us", "us"},
	{"core.categorize_mean_us", "us"},
	{"core.categorize_explained_us", "us"},
	{"core.categorize_allocs", "count"},
	{"core.stage_coverage", "ratio"},
	{"interval.merge_us", "us"},
	{"segment.detect_us", "us"},
	{"core.chunks_us", "us"},
	{"index.add_us", "us"},
	{"index.query_point_us", "us"},
	{"index.query_and_not_us", "us"},
	{"index.query_or_us", "us"},
	{"index.query_not_heavy_us", "us"},
	{"index.axiscounts_us", "us"},
	{"index.rebuild_s", "s"},
	{"ring.merge_us", "us"},
	{"engine.decode_busy_us", "us"},
	{"engine.funnel_busy_us", "us"},
	{"engine.categorize_busy_us", "us"},
}

// layerRow is one line of the share table: a per-layer metric, the
// end-to-end metric and workload it should move, and where it should
// stay flat.
type layerRow struct {
	layer, name, unit, moves, flat string
}

var layerRows = []layerRow{
	{"darshan", "darshan.decode_us", "us", "ops_per_s@corpus; ack_p50_ms@ingest", "query"},
	{"darshan", "darshan.decode_allocs", "count", "ops_per_s@corpus; ack_p50_ms@ingest", "query"},
	{"darshan", "darshan.bytes_per_trace", "B", "ops_per_s@corpus; ack_p50_ms@ingest", "query"},
	{"engine", "engine.decode_busy_us", "us/trace", "ops_per_s@corpus", "ingest, query, cluster"},
	{"engine", "engine.funnel_busy_us", "us/trace", "ops_per_s@corpus", "ingest, query, cluster"},
	{"engine", "engine.categorize_busy_us", "us/trace", "ops_per_s@corpus", "ingest, query, cluster"},
	{"engine", "engine.aggregate_wall_s", "s/pass", "ops_per_s@corpus", "ingest, query, cluster"},
	{"engine", "engine.scan_wall_s", "s/pass", "ops_per_s@corpus", "ingest, query, cluster"},
	{"engine", "engine.funnel_kept_ratio", "ratio", "ops_per_s@corpus", "ingest, query, cluster"},
	{"core", "core.categorize_us", "us", "visible_p50_ms, ops_per_s@ingest, cluster", "query"},
	{"core", "core.categorize_mean_us", "us", "visible_p50_ms, ops_per_s@ingest, cluster", "query"},
	{"core", "core.categorize_explained_us", "us", "visible_p50_ms, ops_per_s@ingest, cluster", "query"},
	{"core", "core.categorize_allocs", "count", "visible_p50_ms, ops_per_s@ingest, cluster", "query"},
	{"core", "core.stage_coverage", "ratio", "(share of core.categorize_us the sub-stages explain)", "-"},
	{"interval", "interval.merge_us", "us", "visible_p50_ms@ingest", "query"},
	{"segment", "segment.detect_us", "us", "visible_p50_ms@ingest", "query"},
	{"core", "core.chunks_us", "us", "visible_p50_ms@ingest", "query"},
	{"store", "store.tracekey_us", "us", "ack_p50_ms@ingest, cluster", "corpus"},
	{"store", "store.put_trace_us", "us", "ack_p50_ms@ingest, cluster", "corpus"},
	{"store", "store.fsyncs_per_ack", "ratio", "ack_p50_ms@ingest, cluster", "corpus"},
	{"store", "store.put_result_us", "us", "ack_p50_ms@ingest, cluster", "corpus"},
	{"store", "store.put_explanation_us", "us", "ack_p50_ms@ingest, cluster", "corpus"},
	{"store", "store.bytes_written_per_trace", "B", "ack_p50_ms@ingest, cluster", "corpus"},
	{"store", "store.get_result_us", "us", "lookup_p50_ms@query", "corpus"},
	{"store", "store.cache_hit_ratio", "ratio", "lookup_p50_ms@query", "corpus"},
	{"store", "store.open_s", "s", "open_s@query", "corpus"},
	{"serve", "serve.queue_wait_ms", "ms", "visible_p50_ms@ingest", "corpus"},
	{"serve", "serve.http_ms{POST /v1/traces}", "ms", "visible_p50_ms@ingest", "corpus"},
	{"serve", "serve.http_ms{POST /v1/traces:batch}", "ms", "ack_p50_ms@cluster", "corpus"},
	{"serve", "serve.http_ms{GET /v1/query}", "ms", "query_p50_ms@query, cluster", "corpus"},
	{"serve", "serve.http_ms{GET /v1/stats}", "ms", "stats_p50_ms@query", "corpus"},
	{"serve", "serve.http_ms{GET /v1/results/{id}}", "ms", "lookup_p50_ms@query", "corpus"},
	{"serve", "serve.ingest_ms", "ms", "visible_p50_ms@ingest", "corpus"},
	{"serve", "serve.categorize_ms", "ms", "visible_p50_ms@ingest", "corpus"},
	{"index", "index.query_point_us", "us", "query_p50_ms@query", "corpus"},
	{"index", "index.query_and_not_us", "us", "query_p50_ms@query", "corpus"},
	{"index", "index.query_or_us", "us", "query_p50_ms@query", "corpus"},
	{"index", "index.query_not_heavy_us", "us", "query_p50_ms@query", "corpus"},
	{"index", "index.axiscounts_us", "us", "stats_p50_ms@query", "corpus"},
	{"index", "index.add_us", "us", "visible_p50_ms@ingest", "corpus"},
	{"index", "index.rebuild_s", "s", "open_s@query", "corpus"},
	{"ring", "ring.rpc_ms{all}", "ms", "ack_p50_ms, query_p50_ms@cluster", "ingest, query"},
	{"ring", "ring.rpc_ms{forward}", "ms", "ack_p50_ms@cluster", "ingest, query"},
	{"ring", "ring.rpc_ms{replicate}", "ms", "ack_p50_ms@cluster", "ingest, query"},
	{"ring", "ring.rpc_ms{scatter}", "ms", "query_p50_ms@cluster", "ingest, query"},
	{"ring", "ring.merge_us", "us", "query_p50_ms@cluster", "ingest, query"},
}

// notMeasured explains table rows a workload cannot fill.
var notMeasured = map[string]string{
	"store.cache_hit_ratio": "no public cache-hit counter (ROADMAP item 2)",
}

// layerReport is a traced run's per-layer view.
type layerReport struct {
	values   map[string]float64
	basis    metric // the end-to-end latency shares are taken of (traced phase)
	selfTime []spanShare
	overhead []overheadRow
	chrome   string
}

type spanShare struct {
	name   string
	meanMS float64
	count  int
}

type overheadRow struct {
	name             string
	untraced, traced float64
}

func (l *layerReport) print(w io.Writer) {
	fmt.Fprintf(w, "per-layer metrics (traced run; shares of %s = %.4f ms):\n", l.basis.Name, l.basis.Value)
	fmt.Fprintf(w, "  %-38s %14s %-9s %8s  %-46s %s\n", "metric", "value", "unit", "share", "should move", "flat on")
	for _, r := range layerRows {
		v, ok := l.values[r.name]
		val, share, note := "n/a", "", ""
		switch {
		case ok:
			val = strconv.FormatFloat(v, 'f', 4, 64)
			if ms, isTime := toMS(v, r.unit); isTime && l.basis.Value > 0 {
				share = fmt.Sprintf("%7.2f%%", 100*ms/l.basis.Value)
			}
		case notMeasured[r.name] != "":
			note = "  (" + notMeasured[r.name] + ")"
		default:
			note = "  (layer not exercised by this workload)"
		}
		fmt.Fprintf(w, "  %-38s %14s %-9s %8s  %-46s %s%s\n", r.name, val, r.unit, share, r.moves, r.flat, note)
	}
	if len(l.selfTime) > 0 {
		fmt.Fprintf(w, "span self time per request, summed over the spans of one request (flight recorder; share of %s):\n", l.basis.Name)
		for _, s := range l.selfTime {
			fmt.Fprintf(w, "  %-38s %10.4f ms %7.2f%%  n=%d\n", s.name, s.meanMS, 100*s.meanMS/l.basis.Value, s.count)
		}
	}
	fmt.Fprintln(w, "tracing overhead (traced phase against untraced phase, same run):")
	for _, o := range l.overhead {
		fmt.Fprintf(w, "  %-28s untraced %12.4f traced %12.4f  %+7.2f%%\n", o.name, o.untraced, o.traced, 100*(o.traced/o.untraced-1))
	}
	fmt.Fprintln(w, "chrome trace:", l.chrome)
}

// toMS converts a per-call time to milliseconds; ok is false for
// non-time units.
func toMS(v float64, unit string) (float64, bool) {
	switch unit {
	case "us", "us/trace":
		return v / 1e3, true
	case "ms":
		return v, true
	default:
		return 0, false
	}
}

func overheadOf(untraced, traced []metric) []overheadRow {
	var out []overheadRow
	for i := range untraced {
		out = append(out, overheadRow{untraced[i].Name, untraced[i].Value, traced[i].Value})
	}
	return out
}

// scrape is one /metrics exposition keyed by series ("name{labels}").
type scrape map[string]float64

func parseScrape(data []byte) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		s[line[:i]] += v
	}
	return s, sc.Err()
}

// merge adds another node's scrape.
func (s scrape) merge(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}

// delta sums after-before over every series of family (a histogram's
// _sum or _count, say) whose labels contain match.
func delta(before, after scrape, family, match string) float64 {
	var d float64
	for k, v := range after {
		name, labels, _ := strings.Cut(k, "{")
		if name != family || !strings.Contains(labels, match) {
			continue
		}
		d += v - before[k]
	}
	return d
}

// meanMS is a histogram family's mean observation over the phase, in
// ms; ok is false when nothing was observed.
func meanMS(before, after scrape, family, match string) (float64, bool) {
	n := delta(before, after, family+"_count", match)
	if n <= 0 {
		return 0, false
	}
	return 1000 * delta(before, after, family+"_sum", match) / n, true
}

// serveLayers derives the serve, ring and engine per-layer metrics from
// the /metrics deltas of the traced phase. traces is the number of
// traces that entered the engine.
func serveLayers(v map[string]float64, before, after scrape, traces int) {
	set := func(name, family, match string) {
		if ms, ok := meanMS(before, after, family, match); ok {
			v[name] = ms
		}
	}
	set("serve.queue_wait_ms", "mosaic_serve_queue_wait_seconds", "")
	set("serve.ingest_ms", "mosaic_serve_ingest_seconds", "")
	set("serve.categorize_ms", "mosaic_serve_categorize_seconds", "")
	for _, route := range []string{"POST /v1/traces", "POST /v1/traces:batch", "GET /v1/query", "GET /v1/stats", "GET /v1/results/{id}"} {
		_, path, _ := strings.Cut(route, " ")
		set("serve.http_ms{"+route+"}", "mosaic_http_request_seconds", `route="`+path+`"`)
	}
	set("ring.rpc_ms{all}", "mosaic_ring_rpc_seconds", "")
	if traces > 0 {
		for _, stage := range []string{"decode", "funnel", "categorize"} {
			busy := delta(before, after, "mosaic_engine_item_seconds_sum", `stage="`+stage+`"`)
			v["engine."+stage+"_busy_us"] = 1e6 * busy / float64(traces)
		}
		in := delta(before, after, "mosaic_engine_items_in_total", `stage="funnel"`)
		if in > 0 {
			v["engine.funnel_kept_ratio"] = delta(before, after, "mosaic_engine_items_out_total", `stage="funnel"`) / in
		}
	}
}

// chromeEvent is the subset of a Chrome trace event the self-time
// computation reads.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Args map[string]string `json:"args"`
}

// chromeStats is what one Chrome trace says about its spans.
type chromeStats struct {
	// self is each span name's mean self time per request whose root
	// is the given route — the span's duration minus the part of it its
	// child spans cover — sorted by decreasing self time.
	self []spanShare
	// meanMS is each span name's mean duration over every request.
	meanMS map[string]float64
}

// writeChrome dumps every retained request of rec as one Chrome trace
// at path and reads it back for the span statistics of requests rooted
// at route ("POST /v1/traces", say).
func writeChrome(rec *reqtrace.Recorder, path, route string) (*chromeStats, error) {
	if err := rec.DumpSnapshot(path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("reading back %s: %w", path, err)
	}
	byPid := map[int][]chromeEvent{}
	durSum := map[string]float64{}
	durN := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			byPid[e.Pid] = append(byPid[e.Pid], e)
			durSum[e.Name] += e.Dur / 1e3
			durN[e.Name]++
		}
	}
	cs := &chromeStats{meanMS: map[string]float64{}}
	for name, sum := range durSum {
		cs.meanMS[name] = sum / float64(durN[name])
	}
	self := map[string]float64{}
	count := map[string]int{}
	requests := 0
	for _, evs := range byPid {
		rootRoute := ""
		for _, e := range evs {
			if e.Args["trace_id"] != "" {
				rootRoute = e.Name
			}
		}
		if rootRoute != route {
			continue
		}
		requests++
		children := map[string][]chromeEvent{}
		for _, e := range evs {
			children[e.Args["parent"]] = append(children[e.Args["parent"]], e)
		}
		for _, e := range evs {
			self[e.Name] += (e.Dur - covered(e, children[e.Args["span_id"]])) / 1e3
			count[e.Name]++
		}
	}
	for name, ms := range self {
		cs.self = append(cs.self, spanShare{name: name, meanMS: ms / float64(requests), count: count[name]})
	}
	sort.Slice(cs.self, func(i, j int) bool { return cs.self[i].meanMS > cs.self[j].meanMS })
	return cs, nil
}

// ringLayers adds the per-operation ring RPC latencies from the
// client-side rpc.<op> spans.
func ringLayers(v map[string]float64, cs *chromeStats) {
	for name, span := range map[string]string{"forward": "rpc.ingest", "replicate": "rpc.replicate", "scatter": "rpc.query"} {
		if ms, ok := cs.meanMS[span]; ok {
			v["ring.rpc_ms{"+name+"}"] = ms
		}
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent chromeEvent, kids []chromeEvent) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := math.Max(k.Ts, parent.Ts), math.Min(k.Ts+k.Dur, parent.Ts+parent.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	end = math.Inf(-1)
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
