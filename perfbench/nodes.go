package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/events"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/ring"
	"github.com/mosaic-hpc/mosaic/internal/serve"
	"github.com/mosaic-hpc/mosaic/internal/store"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// node is one in-process mosaic-serve: a Sync store, the server at the
// command's defaults, and a loopback HTTP listener (plus the ring RPC
// listener in a cluster).
type node struct {
	id    string
	dir   string
	st    *store.Store
	srv   *serve.Server
	hs    *http.Server
	addr  string // HTTP host:port
	httpc chan error
	rpcc  chan error // nil outside a cluster
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// serveConfig mirrors mosaic-serve's flag defaults: 2 workers, queue
// 256, 256 MiB uploads, explain on with margin 0.05, request tracing on
// with a 64-request flight recorder, alerts on, telemetry with spans.
// flight, when non-nil, replaces the default recorder (the traced run's
// collector). Logs are discarded: the command writes them to stderr.
func serveConfig(st *store.Store, id string, flight *reqtrace.Recorder) serve.Config {
	if flight == nil {
		flight = reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 64})
	}
	return serve.Config{
		Store:          st,
		Analysis:       core.DefaultConfig(),
		Workers:        2,
		QueueDepth:     256,
		MaxUploadBytes: 256 << 20,
		Telemetry:      telemetry.New(telemetry.Config{Spans: true, SpanLimit: 4096}),
		Explain:        true,
		ExplainMargin:  0.05,
		Flight:         flight,
		Events:         events.NewLog(events.Config{Capacity: 1024, Node: id, Logger: quietLog}),
	}
}

// storeOptions is the flush policy of every benchmark store: fsync
// before acknowledging (group-committed), default 32 MiB read cache.
var storeOptions = store.Options{Sync: true}

// startNodes opens n stores under dir (each a copy of seedDir when it
// is set) and starts n servers; with n > 1 they form a cluster at the
// command's defaults (RF 2, replica-ack 1, 128 vnodes). It returns the
// nodes and the time from store open until the last server answers
// (restart time).
func startNodes(dir string, n int, seedDir string, flight *reqtrace.Recorder) ([]*node, time.Duration, error) {
	nodes := make([]*node, n)
	httpLs := make([]net.Listener, n)
	rpcLs := make([]net.Listener, n)
	members := make([]ring.Node, n)
	closeAll := func() {
		for i := range nodes {
			if httpLs[i] != nil {
				httpLs[i].Close()
			}
			if rpcLs[i] != nil {
				rpcLs[i].Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		httpLs[i] = l
		members[i] = ring.Node{ID: fmt.Sprintf("node-%d", i), HTTPAddr: l.Addr().String()}
		if n > 1 {
			rl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll()
				return nil, 0, err
			}
			rpcLs[i] = rl
			members[i].Addr = rl.Addr().String()
		}
		nd := &node{id: members[i].ID, dir: filepath.Join(dir, members[i].ID)}
		if seedDir != "" {
			if err := copyDir(nd.dir, seedDir); err != nil {
				closeAll()
				return nil, 0, err
			}
		}
		nodes[i] = nd
	}
	start := time.Now()
	var started []*node
	fail := func(err error) ([]*node, time.Duration, error) {
		stopNodes(started)
		closeAll()
		return nil, 0, err
	}
	for i, nd := range nodes {
		st, err := store.Open(nd.dir, storeOptions)
		if err != nil {
			return fail(err)
		}
		cfg := serveConfig(st, nd.id, flight)
		if n > 1 {
			cfg.Cluster = &ring.Config{
				Self: nd.id, Nodes: members, VirtualNodes: 128, Replication: 2, ReplicaAck: 1,
			}
		}
		srv, err := serve.New(cfg)
		if err != nil {
			st.Close()
			return fail(err)
		}
		nd.st, nd.srv = st, srv
		nd.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		nd.addr = httpLs[i].Addr().String()
		nd.httpc = make(chan error, 1)
		go func(nd *node, l net.Listener) { nd.httpc <- nd.hs.Serve(l) }(nd, httpLs[i])
		if n > 1 {
			nd.rpcc = make(chan error, 1)
			go func(nd *node, l net.Listener) { nd.rpcc <- nd.srv.ServeCluster(l) }(nd, rpcLs[i])
		}
		started = append(started, nd)
	}
	for _, nd := range nodes {
		if err := waitHealthy(nd.addr); err != nil {
			return fail(err)
		}
	}
	return nodes, time.Since(start), nil
}

// waitHealthy polls /healthz until the node answers.
func waitHealthy(addr string) error {
	c := newClient(&connCounter{})
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := c.do(context.Background(), http.MethodGet, addr, "/healthz", "", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s never became healthy: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopNodes drains and closes every node and waits for its goroutines.
func stopNodes(nodes []*node) error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, nd := range nodes {
		if nd.hs != nil {
			if err := nd.hs.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, nd := range nodes {
		if nd.srv != nil {
			if err := nd.srv.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, nd := range nodes {
		if nd.httpc != nil {
			if err := <-nd.httpc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
		if nd.rpcc != nil {
			<-nd.rpcc // the ring listener closes with a use-of-closed error on shutdown
		}
		if nd.st != nil {
			if err := nd.st.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// pendingTotal is the number of traces still queued or being
// categorized anywhere.
func pendingTotal(nodes []*node) int {
	n := 0
	for _, nd := range nodes {
		n += nd.srv.PendingCount()
	}
	return n
}

// waitDrained blocks until no node has pending categorizations.
func waitDrained(nodes []*node) error {
	deadline := time.Now().Add(60 * time.Second)
	for pendingTotal(nodes) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d traces still pending after 60s", pendingTotal(nodes))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
