package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/serve"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// cluster: three nodes; each client POSTs a batch of clusterBatch fresh
// traces to a rotating entry node, waits until every trace is visible
// at its owner, then issues one scatter query. One operation is one
// trace made visible; p50_ms is the per-trace send → visible latency.

const (
	clusterNodes = 3
	clusterBatch = 16
)

// ownerOf returns the node owning id on the ring.
func ownerOf(nodes []*node, id store.TraceID) *node {
	owner := nodes[0].srv.Cluster().Table().Owner(string(id))
	for _, nd := range nodes {
		if nd.id == owner.ID {
			return nd
		}
	}
	return nodes[0]
}

func runClusterPhase(rc *runCtx, nodes []*node, p *pool, seconds float64, next *atomic.Int64) (*serveRun, error) {
	r := &serveRun{}
	clients := newClients(rc, &connCounter{})
	defer closeClients(clients)
	ctx := context.Background()
	ph := beginPhase()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	err := runClients(clients, func(i int, c *client) error {
		var body, buf []byte
		for round := 0; time.Now().Before(deadline); round++ {
			entry := nodes[(i+round)%len(nodes)]
			body = body[:0]
			bases := make([]int, clusterBatch)
			for j := range bases {
				var err error
				var b int
				buf, b, err = p.variant(buf, int(next.Add(1)-1))
				if err != nil {
					return err
				}
				bases[j] = b
				body = serve.AppendBatchFrame(body, buf)
			}
			clusterRound(ctx, r, ph, c, nodes, entry, body, bases)
		}
		return nil
	})
	r.pr = ph.end()
	return r, err
}

// clusterRound is one client operation: batch ingest, wait for every
// trace at its owner, one scatter query.
func clusterRound(ctx context.Context, r *serveRun, ph *phase, c *client, nodes []*node, entry *node, body []byte, bases []int) {
	t0 := time.Now()
	status, resp, err := c.do(ctx, http.MethodPost, entry.addr, "/v1/traces:batch", serve.BatchContentType, body)
	ackD := time.Since(t0)
	if err != nil || status != http.StatusAccepted {
		r.fail("batch ingest: status %d err %v body %.200s", status, err, resp)
		return
	}
	var ir ingestResponse
	if err := json.Unmarshal(resp, &ir); err != nil || len(ir.Results) != len(bases) {
		r.fail("batch ingest: unexpected response %.200s", resp)
		return
	}
	r.record(&r.ack, ackD)
	pending := make(map[int]*node, len(bases))
	for j, it := range ir.Results {
		if it.Status != "accepted" {
			r.fail("batch item %s: status %s", it.ID, it.Status)
			continue
		}
		pending[j] = ownerOf(nodes, it.ID)
	}
	for len(pending) > 0 {
		for j, owner := range pending {
			id := ir.Results[j].ID
			if owner.srv.Index().Categories(id) == nil {
				continue
			}
			delete(pending, j)
			visD := time.Since(t0)
			r.record(&r.visible, visD)
			ph.finished(float64(visD.Nanoseconds())/1e6, 0)
			r.addAcked(ackedTrace{id: id, base: bases[j]})
			r.ok()
		}
		if len(pending) == 0 {
			break
		}
		if time.Since(t0) > visibleTimeout {
			for j := range pending {
				r.fail("batch item %s not visible after %v", ir.Results[j].ID, visibleTimeout)
			}
			return
		}
		pollSleep()
	}
	q0 := time.Now()
	status, resp, err = c.do(ctx, http.MethodGet, entry.addr, "/v1/query?limit=100&q="+url.QueryEscape(queryShapes[0].q), "", nil)
	qd := time.Since(q0)
	var qr queryResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(resp, &qr)
	}
	switch {
	case err != nil || status != http.StatusOK:
		r.fail("scatter query: status %d err %v", status, err)
	case qr.Partial:
		r.fail("scatter query answered partial")
	default:
		r.record(&r.query, qd)
		r.ok()
	}
}

// checkCluster verifies every acked trace is durable on two nodes and
// carries its reference labels at its owner, and that a scatter query
// over everything counts exactly the acked traces.
func checkCluster(t *tally, nodes []*node, p *pool, r *serveRun) {
	acked := r.acked
	for _, a := range acked {
		copies := 0
		for _, nd := range nodes {
			if nd.st.HasTrace(a.id) {
				copies++
			}
		}
		if copies < 2 {
			t.fail("trace %s stored on %d nodes, want 2", a.id, copies)
		} else {
			t.ok()
		}
	}
	checkLabels(t, p, acked, func(id store.TraceID) *node { return ownerOf(nodes, id) })
	c := newClient(&connCounter{})
	defer c.close()
	status, body, err := c.do(context.Background(), http.MethodGet, nodes[0].addr, "/v1/query?limit=1&q="+url.QueryEscape(everything), "", nil)
	var qr queryResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &qr)
	}
	switch {
	case err != nil || status != http.StatusOK:
		t.fail("final scatter query: status %d err %v", status, err)
	case qr.Partial || qr.Count != len(acked):
		t.fail("final scatter query: count %d partial %v, acked %d", qr.Count, qr.Partial, len(acked))
	default:
		t.ok()
	}
}

func runCluster(rc *runCtx) (*outcome, error) {
	o, _, err := runServe(rc, serveSpec{
		name:  "cluster",
		nodes: clusterNodes,
		phase: func(rc *runCtx, nodes []*node, p *pool, seconds float64, next *atomic.Int64, _ int64) (*serveRun, error) {
			return runClusterPhase(rc, nodes, p, seconds, next)
		},
		check:  checkCluster,
		report: func(r *serveRun, _ samples) []metric { return clusterReport(r) },
		basis: func(r *serveRun) metric {
			return metric{Name: "visible_p50_ms", Value: r.visible.median(), Unit: "ms"}
		},
		route: "POST /v1/traces:batch",
	})
	if err != nil {
		return nil, err
	}
	o.env = append(o.env, fmt.Sprintf("cluster: %d nodes, RF 2, replica-ack 1, 128 vnodes, batches of %d fresh traces", clusterNodes, clusterBatch))
	return o, nil
}

func clusterReport(r *serveRun) []metric {
	return append(ingestReport(r),
		metric{Name: "query_p50_ms", Value: r.query.median(), Unit: "ms", N: len(r.query)},
		tail("query_p99_ms", r.query, 99))
}
