package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The serve workloads (ingest, query, cluster) share one shape: set the
// nodes up, run a timed phase, wait until every acked trace is
// categorized, check the answers, stop the nodes; in a traced run, do
// it again with a benchmark-owned flight recorder and /metrics scrapes,
// then walk the layers over the workload's own store.

// visibleTimeout bounds how long a client waits for an acked trace to
// become visible before counting it failed.
const visibleTimeout = 10 * time.Second

// ackedTrace is one acknowledged fresh trace and the pool trace whose
// reference labels it must carry.
type ackedTrace struct {
	id   store.TraceID
	base int
}

type ingestResponse struct {
	Results []struct {
		ID     store.TraceID `json:"id"`
		Status string        `json:"status"`
	} `json:"results"`
}

// serveRun is one serve workload's timed phase.
type serveRun struct {
	tally
	pr                             phaseResult
	ack, visible, query, stats, lk samples
	writeAck, writeVisible         samples
	shapes                         [len(queryShapes)]samples // query latencies by shape
	mu                             sync.Mutex
	acked                          []ackedTrace
}

func (r *serveRun) record(s *samples, d time.Duration) {
	r.mu.Lock()
	*s = append(*s, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

func (r *serveRun) addAcked(a ackedTrace) {
	r.mu.Lock()
	r.acked = append(r.acked, a)
	r.mu.Unlock()
}

// serveSpec is what distinguishes one serve workload.
type serveSpec struct {
	name    string
	nodes   int
	preload func() (string, error) // store every node starts from (nil: empty)
	// phase runs the timed load; salt tells the untraced phase (0) from
	// the traced one (1), so each draws its own read mix.
	phase  func(rc *runCtx, nodes []*node, p *pool, seconds float64, next *atomic.Int64, salt int64) (*serveRun, error)
	check  func(t *tally, nodes []*node, p *pool, r *serveRun)
	report func(r *serveRun, open samples) []metric
	basis  func(r *serveRun) metric // the latency traced shares are taken of
	route  string                   // root span of the workload's requests
}

// runServe runs a serve workload and returns its outcome and pool.
func runServe(rc *runCtx, sp serveSpec) (*outcome, *pool, error) {
	o := &outcome{}
	p, nodes, setup, open, err := setupServe(rc, sp.nodes, sp.preload, nil, setups)
	if err != nil {
		return nil, nil, err
	}
	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	var next atomic.Int64
	base, _, err := serveTimed(rc, sp, nodes, p, seconds, &next, 0, &o.tally, false)
	if err != nil {
		return nil, nil, err
	}
	if o.e2e, err = endToEndMetrics(setup, base.pr); err != nil {
		return nil, nil, err
	}
	o.report = sp.report(base, open)
	if !rc.trace {
		return o, p, nil
	}

	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 1 << 16})
	if _, nodes, _, _, err = setupServe(rc, sp.nodes, sp.preload, rec, 1); err != nil {
		return nil, nil, err
	}
	traced, tr, err := serveTimed(rc, sp, nodes, p, seconds, &next, 1, &o.tally, true)
	if err != nil {
		return nil, nil, err
	}
	tracedE2E, err := endToEndMetrics(setup, traced.pr)
	if err != nil {
		return nil, nil, err
	}
	blobs, err := walkBlobs(p)
	if err != nil {
		return nil, nil, err
	}
	values, err := layerWalk(rc.scratch, blobs, tr.readDir, rc.seed, rec)
	if err != nil {
		return nil, nil, err
	}
	serveLayers(values, tr.before, tr.after, len(traced.acked))
	if len(traced.acked) > 0 {
		values["store.fsyncs_per_ack"] = float64(tr.syncs) / float64(len(traced.acked))
	}
	lr := &layerReport{
		values:   values,
		basis:    sp.basis(traced),
		overhead: overheadOf(o.e2e, tracedE2E),
		chrome:   filepath.Join(rc.work, fmt.Sprintf("trace-%s-s%d.json", sp.name, rc.seed)),
	}
	cs, err := writeChrome(rec, lr.chrome, sp.route)
	if err != nil {
		return nil, nil, err
	}
	ringLayers(values, cs)
	lr.selfTime = cs.self
	o.layers = lr
	return o, p, nil
}

// tracedPhase is what a traced phase collects besides its run.
type tracedPhase struct {
	before, after scrape
	syncs         int64  // group-commit fsyncs the phase caused, all nodes
	readDir       string // node 0's store, for the read walk
}

// serveTimed runs one timed phase on running nodes, waits until every
// acked trace is categorized, checks the answers into t, and stops the
// nodes. traced adds /metrics scrapes and fsync counts around the phase.
func serveTimed(rc *runCtx, sp serveSpec, nodes []*node, p *pool, seconds float64, next *atomic.Int64, salt int64, t *tally, traced bool) (*serveRun, *tracedPhase, error) {
	tr := &tracedPhase{readDir: nodes[0].dir}
	syncs := func() (n int64) {
		for _, nd := range nodes {
			n += nd.st.Stats().GroupSyncs
		}
		return n
	}
	var err error
	if traced {
		tr.before, err = scrapeNodes(nodes)
		tr.syncs = -syncs()
	}
	var r *serveRun
	if err == nil {
		r, err = sp.phase(rc, nodes, p, seconds, next, salt)
	}
	if err == nil {
		err = waitDrained(nodes)
	}
	if err == nil && traced {
		tr.after, err = scrapeNodes(nodes)
		tr.syncs += syncs()
	}
	if err == nil {
		t.add(&r.tally)
		sp.check(t, nodes, p, r)
	}
	if serr := stopNodes(nodes); err == nil {
		err = serr
	}
	return r, tr, err
}

// waitVisible polls nd's index until id carries labels: the moment a
// /v1/query can return the trace.
func waitVisible(nd *node, id store.TraceID, t0 time.Time) bool {
	for nd.srv.Index().Categories(id) == nil {
		if time.Since(t0) > visibleTimeout {
			return false
		}
		pollSleep()
	}
	return true
}

// ingestOne POSTs the k-th fresh trace to nd and, once acked, waits
// until it is visible there. It records ack and visible latencies into
// ack and visible, and counts the trace as a phase operation when ph is
// set.
func ingestOne(ctx context.Context, r *serveRun, ph *phase, c *client, nd *node, p *pool, k int, buf []byte, ack, visible *samples) []byte {
	body, base, err := p.variant(buf, k)
	if err != nil {
		r.fail("encoding fresh trace %d: %v", k, err)
		return buf
	}
	t0 := time.Now()
	status, resp, err := c.do(ctx, http.MethodPost, nd.addr, "/v1/traces", "application/octet-stream", body)
	ackD := time.Since(t0)
	if err != nil || status != http.StatusAccepted {
		r.fail("ingest %d: status %d err %v body %.200s", k, status, err, resp)
		return body
	}
	var ir ingestResponse
	if err := json.Unmarshal(resp, &ir); err != nil || len(ir.Results) != 1 || ir.Results[0].Status != "accepted" {
		r.fail("ingest %d: unexpected response %.200s", k, resp)
		return body
	}
	id := ir.Results[0].ID
	r.record(ack, ackD)
	if !waitVisible(nd, id, t0) {
		r.fail("ingest %d: trace %s not visible after %v", k, id, visibleTimeout)
		return body
	}
	visD := time.Since(t0)
	r.record(visible, visD)
	r.addAcked(ackedTrace{id: id, base: base})
	r.ok()
	if ph != nil {
		ph.finished(float64(visD.Nanoseconds())/1e6, 0)
	}
	return body
}

// checkLabels compares every acked trace's indexed labels on its owner
// with the reference labels computed when the pool was generated.
func checkLabels(t *tally, p *pool, acked []ackedTrace, owner func(store.TraceID) *node) {
	for _, a := range acked {
		got := categoriesOf(owner(a.id), a.id)
		want := p.labels[a.base]
		if sortedLabels(got) != sortedLabels(want) {
			t.fail("trace %s labels %v, reference %v", a.id, got, want)
		} else {
			t.ok()
		}
	}
}

func categoriesOf(nd *node, id store.TraceID) []string {
	cats := nd.srv.Index().Categories(id)
	out := make([]string, len(cats))
	for i, c := range cats {
		out[i] = string(c)
	}
	return out
}

// setupServe sets a serve workload up `times` times — load the pool,
// open (copies of) the stores, start the nodes — keeping the last set
// of nodes running. It returns the set-up times and the restart times.
func setupServe(rc *runCtx, n int, seedDir func() (string, error), flight *reqtrace.Recorder, times int) (*pool, []*node, samples, samples, error) {
	var setup, open samples
	var p *pool
	var nodes []*node
	var dir string
	for i := 0; i < times; i++ {
		if nodes != nil {
			if err := stopNodes(nodes); err != nil {
				return nil, nil, nil, nil, err
			}
			// Removing a replaced set-up's stores drops their unwritten
			// pages, so the timed phase shares the disk and page cache
			// with one copy of the preload, not with one per set-up.
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		start := time.Now()
		var err error
		p, err = loadPool(rc.cache, rc.seed)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		src := ""
		if seedDir != nil {
			if src, err = seedDir(); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		dir = filepath.Join(rc.scratch, fmt.Sprintf("nodes-%d", time.Now().UnixNano()))
		var openD time.Duration
		nodes, openD, err = startNodes(dir, n, src, flight)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		open = append(open, openD.Seconds())
	}
	return p, nodes, setup, open, nil
}

// newClients makes nproc load clients sharing one connection counter.
func newClients(rc *runCtx, cc *connCounter) []*client {
	cs := make([]*client, rc.nproc)
	for i := range cs {
		cs[i] = newClient(cc)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// scrapeNodes GETs /metrics from every node and sums the series.
func scrapeNodes(nodes []*node) (scrape, error) {
	total := scrape{}
	c := newClient(&connCounter{})
	defer c.close()
	for _, nd := range nodes {
		status, buf, err := c.do(context.Background(), http.MethodGet, nd.addr, "/metrics", "", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /metrics: status %d", status)
		}
		if err != nil {
			return nil, err
		}
		s, err := parseScrape(buf)
		if err != nil {
			return nil, err
		}
		total.merge(s)
	}
	return total, nil
}
