package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// query: nproc closed-loop readers, one of them also carrying a paced
// write stream, on one node whose store was preloaded with
// preloadResults results.

// writeInterval paces the write stream: 20 fresh ingests per second.
const writeInterval = 50 * time.Millisecond

// Read mix, in percent: queries (the four shapes in turn), stats, and
// result lookups by ID drawn uniformly over the preloaded store. The
// weights are an assumption, not a measurement of real traffic: queries
// are what the workload exists for, a lookup follows up some query
// answers, and stats is an occasional dashboard refresh.
const (
	mixQuery = 60
	mixStats = 10
)

// Latency classes of the reads beyond the query shapes' 0..3: p50_ms is
// the mean of every class's median, so each kind of read counts.
const (
	classStats  = len(queryShapes)
	classLookup = len(queryShapes) + 1
)

type queryResponse struct {
	Count   int      `json:"count"`
	Partial bool     `json:"partial"`
	IDs     []string `json:"ids"`
}

// runQueryPhase runs the clients for seconds. Every client reads in a
// closed loop; client 0 also carries the write stream, sending the next
// fresh trace as soon as its read in flight completes once the write is
// due. Reads keep every core busy, which makes the phase measure CPU
// work, not the wake-up latency of an idle machine.
func runQueryPhase(rc *runCtx, nd *node, p *pool, pl *preload, seconds float64, next *atomic.Int64, salt int64) (*serveRun, error) {
	r := &serveRun{}
	clients := newClients(rc, &connCounter{})
	defer closeClients(clients)
	ctx := context.Background()
	ph := beginPhase()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	err := runClients(clients, func(i int, c *client) error {
		rng := rand.New(rand.NewSource(subSeed(rc.seed, fmt.Sprintf("reader-%d-%d", salt, i))))
		var buf []byte
		due := start
		for n := 0; time.Now().Before(deadline); n++ {
			if i == 0 && !time.Now().Before(due) {
				due = due.Add(writeInterval)
				if now := time.Now(); due.Before(now) {
					due = now // a slow write delays the stream, it does not burst after
				}
				buf = ingestOne(ctx, r, nil, c, nd, p, int(next.Add(1)-1), buf, &r.writeAck, &r.writeVisible)
				continue
			}
			readOne(ctx, r, ph, c, nd, pl, rng, n)
		}
		return nil
	})
	r.pr = ph.end()
	return r, err
}

// readOne issues one read of the seeded mix and checks its answer.
func readOne(ctx context.Context, r *serveRun, ph *phase, c *client, nd *node, pl *preload, rng *rand.Rand, n int) {
	roll := rng.Intn(100)
	var path string
	var lat *samples
	want, class := -1, 0
	switch {
	case roll < mixQuery:
		class = n % len(queryShapes)
		path, lat = "/v1/query?limit=100&q="+url.QueryEscape(queryShapes[class].q), &r.shapes[class]
	case roll < mixQuery+mixStats:
		class = classStats
		path, lat = "/v1/stats", &r.stats
	default:
		class, want = classLookup, rng.Intn(preloadResults)
		path, lat = "/v1/results/"+string(preloadID(pl.seed, want)), &r.lk
	}
	t0 := time.Now()
	status, body, err := c.do(ctx, http.MethodGet, nd.addr, path, "", nil)
	d := time.Since(t0)
	if err != nil || status != http.StatusOK {
		r.fail("GET %s: status %d err %v", path, status, err)
		return
	}
	if want >= 0 {
		if err := checkLookup(body, pl.labelsOf(want)); err != nil {
			r.fail("lookup %d: %v", want, err)
			return
		}
	}
	r.record(lat, d)
	ph.finished(float64(d.Nanoseconds())/1e6, class)
	r.ok()
}

// checkLookup checks a GET /v1/results/{id} body against the labels
// stored under the ID.
func checkLookup(body []byte, want []string) error {
	var res struct {
		Labels []string `json:"categories"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if sortedLabels(res.Labels) != sortedLabels(want) {
		return fmt.Errorf("labels %v, stored %v", res.Labels, want)
	}
	return nil
}

// checkQueries compares each shape's final count on the node with
// index.Oracle loaded with the first preloaded entries of the pool plus
// the traces the write stream acked.
func checkQueries(t *tally, ctx context.Context, nd *node, p *pool, pl *preload, preloaded int, acked []ackedTrace) {
	o := index.NewOracle()
	for i := 0; i < preloaded; i++ {
		o.Add(preloadID(pl.seed, i), labelSet(pl.labelsOf(i)))
	}
	for _, a := range acked {
		o.Add(a.id, labelSet(p.labels[a.base]))
	}
	c := newClient(&connCounter{})
	defer c.close()
	for _, sh := range queryShapes {
		want, err := o.QueryIDs(sh.q)
		if err != nil {
			t.fail("oracle %s: %v", sh.name, err)
			continue
		}
		status, body, err := c.do(ctx, http.MethodGet, nd.addr, "/v1/query?limit=1&q="+url.QueryEscape(sh.q), "", nil)
		var qr queryResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &qr)
		}
		switch {
		case err != nil || status != http.StatusOK:
			t.fail("final query %s: status %d err %v", sh.name, status, err)
		case qr.Count != len(want):
			t.fail("final query %s: count %d, oracle %d", sh.name, qr.Count, len(want))
		default:
			t.ok()
		}
	}
}

func labelSet(ls []string) category.Set {
	s := category.NewSet()
	for _, l := range ls {
		s.Add(category.Category(l))
	}
	return s
}

func runQuery(rc *runCtx) (*outcome, error) {
	var pl *preload
	o, _, err := runServe(rc, serveSpec{
		name:  "query",
		nodes: 1,
		preload: func() (string, error) {
			var err error
			pl, err = loadPreload(rc.cache, rc.seed, rc.nproc)
			if err != nil {
				return "", err
			}
			return pl.dir, nil
		},
		phase: func(rc *runCtx, nodes []*node, p *pool, seconds float64, next *atomic.Int64, salt int64) (*serveRun, error) {
			return runQueryPhase(rc, nodes[0], p, pl, seconds, next, salt)
		},
		check: func(t *tally, nodes []*node, p *pool, r *serveRun) {
			checkLabels(t, p, r.acked, func(store.TraceID) *node { return nodes[0] })
			checkQueries(t, context.Background(), nodes[0], p, pl, preloadResults, r.acked)
		},
		report: queryReport,
		basis: func(r *serveRun) metric {
			return metric{Name: "query_p50_ms", Value: shapeP50(r), Unit: "ms"}
		},
		route: "GET /v1/query",
	})
	if err != nil {
		return nil, err
	}
	bytes, _ := dirSize(pl.dir)
	o.env = append(o.env, fmt.Sprintf("preload: %d results (%.1f MiB on disk) from %d generated traces; store cache 32 MiB = %.1f%% of the working set; writes %d/s",
		preloadResults, float64(bytes)/(1<<20), len(pl.labels), 100*float64(32<<20)/float64(bytes), int(time.Second/writeInterval)))
	return o, nil
}

// shapeP50 is the mean of the query shapes' median latencies: the
// shapes differ several-fold in cost, and the median of their mix would
// sit in the gap between two of them.
func shapeP50(r *serveRun) float64 {
	p50, _ := meanOfMedians(r.shapes[:])
	return p50
}

func allQueries(r *serveRun) samples {
	var all samples
	for _, s := range r.shapes {
		all = append(all, s...)
	}
	return all
}

func queryReport(r *serveRun, open samples) []metric {
	out := []metric{
		{Name: "query_p50_ms", Value: shapeP50(r), Unit: "ms", N: len(allQueries(r))},
		tail("query_p99_ms", allQueries(r), 99),
		{Name: "stats_p50_ms", Value: r.stats.median(), Unit: "ms", N: len(r.stats)},
		{Name: "lookup_p50_ms", Value: r.lk.median(), Unit: "ms", N: len(r.lk)},
		{Name: "open_s", Value: open.median(), Unit: "s", N: len(open)},
		{Name: "write_ack_p50_ms", Value: r.writeAck.median(), Unit: "ms", N: len(r.writeAck)},
		{Name: "write_visible_p50_ms", Value: r.writeVisible.median(), Unit: "ms", N: len(r.writeVisible)},
		{Name: "writes_per_s", Value: float64(len(r.writeVisible)) / r.pr.wall, Unit: "1/s"},
	}
	for i, sh := range queryShapes {
		out = append(out, metric{Name: "query_" + sh.name + "_p50_ms", Value: r.shapes[i].median(), Unit: "ms", N: len(r.shapes[i])})
	}
	return out
}
