package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/store"
)

// ingest: one node; nproc closed-loop clients each POST one fresh trace,
// wait for the ack, then wait until the trace is visible. One operation
// is one trace made visible; p50_ms is POST → visible.

func runIngest(rc *runCtx) (*outcome, error) {
	o, p, err := runServe(rc, serveSpec{
		name:  "ingest",
		nodes: 1,
		phase: func(rc *runCtx, nodes []*node, p *pool, seconds float64, next *atomic.Int64, _ int64) (*serveRun, error) {
			return runIngestPhase(rc, nodes[0], p, seconds, next)
		},
		check: func(t *tally, nodes []*node, p *pool, r *serveRun) {
			checkLabels(t, p, r.acked, func(store.TraceID) *node { return nodes[0] })
		},
		report: func(r *serveRun, _ samples) []metric { return ingestReport(r) },
		basis: func(r *serveRun) metric {
			return metric{Name: "visible_p50_ms", Value: r.visible.median(), Unit: "ms"}
		},
		route: "POST /v1/traces",
	})
	if err != nil {
		return nil, err
	}
	o.env = append(o.env, fmt.Sprintf("fresh traces: variants of %d generated pool traces (fresh JobID each), raw MOSD bodies", len(p.jobs)))
	return o, nil
}

// runIngestPhase runs nproc closed-loop clients against one node for
// seconds; next hands out fresh-trace indexes.
func runIngestPhase(rc *runCtx, nd *node, p *pool, seconds float64, next *atomic.Int64) (*serveRun, error) {
	r := &serveRun{}
	clients := newClients(rc, &connCounter{})
	defer closeClients(clients)
	ctx := context.Background()
	ph := beginPhase()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	err := runClients(clients, func(_ int, c *client) error {
		var buf []byte
		for time.Now().Before(deadline) {
			buf = ingestOne(ctx, r, ph, c, nd, p, int(next.Add(1)-1), buf, &r.ack, &r.visible)
		}
		return nil
	})
	r.pr = ph.end()
	return r, err
}

// ingestReport lists the workload's own metrics: the ack and visible
// latency of the ingests, with tails.
func ingestReport(r *serveRun) []metric {
	return []metric{
		{Name: "traces_per_s", Value: float64(len(r.visible)) / r.pr.wall, Unit: "1/s"},
		{Name: "ack_p50_ms", Value: r.ack.median(), Unit: "ms", N: len(r.ack)},
		tail("ack_p99_ms", r.ack, 99),
		{Name: "visible_p50_ms", Value: r.visible.median(), Unit: "ms", N: len(r.visible)},
		tail("visible_p99_ms", r.visible, 99),
	}
}
