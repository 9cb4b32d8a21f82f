package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

func openSyncStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestServeResultOfStoredUnqueuedTrace: a trace whose blob is durably
// stored but not (yet) queued — here backfill is off, so it never is —
// answers 202 "stored", not 404 "unknown trace".
func TestServeResultOfStoredUnqueuedTrace(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id, _, err := st.PutTrace(testJob(600))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Store: st, Workers: 1, NoBackfill: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/v1/results/"+string(id))
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("result body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusAccepted || doc.Status != "stored" {
		t.Fatalf("stored trace: status %d body %s, want 202 stored", resp.StatusCode, body)
	}
	unknown := store.HashBytes([]byte("never stored"))
	if resp, body := getBody(t, ts.URL+"/v1/results/"+string(unknown)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d body %s, want 404", resp.StatusCode, body)
	}
}

// TestServeIngestCostsTwoGroupSyncs: on a Sync store one ingest costs
// one commit for the ack (the trace blob) and one for visibility (its
// result and explanation together).
func TestServeIngestCostsTwoGroupSyncs(t *testing.T) {
	st := openSyncStore(t)
	s, _ := newTestServer(t, Config{Store: st, Workers: 1, NoBackfill: true, Explain: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postBlob(t, ts.URL, encodeJob(t, testJob(610)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, body)
	}
	waitIdle(t, s)
	if s.Index().Len() != 1 {
		t.Fatalf("indexed %d traces, want 1", s.Index().Len())
	}
	stats := st.Stats()
	if stats.Explanations != 1 {
		t.Fatalf("stored %d explanations, want 1", stats.Explanations)
	}
	if stats.GroupSyncs != 2 || stats.SyncedFrames != 3 {
		t.Fatalf("one ingest cost %d fsyncs covering %d frames, want 2 covering 3",
			stats.GroupSyncs, stats.SyncedFrames)
	}
}

// gatedExec is engine.Local whose first Categorize call blocks until
// gate closes, signalling entered once it is blocked: it holds the only
// worker busy while a test queues more traces behind it.
type gatedExec struct {
	inner   engine.Local
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.inner.Categorize(ctx, j, cfg)
}

func (g *gatedExec) Concurrency() int { return 1 }

// TestServeGroupsQueuedTracesIntoOneCommit: traces that queue up while
// the only worker is busy become visible through fewer outcome commits
// than traces — the worker takes what is already queued as one group.
func TestServeGroupsQueuedTracesIntoOneCommit(t *testing.T) {
	const n = 8
	st := openSyncStore(t)
	exec := &gatedExec{inner: engine.Local{Workers: 1}, entered: make(chan struct{}), gate: make(chan struct{})}
	s, _ := newTestServer(t, Config{Store: st, Workers: 1, NoBackfill: true, Executor: exec})
	defer s.Shutdown(context.Background())
	release := sync.OnceFunc(func() { close(exec.gate) })
	defer release() // before Shutdown, which waits for the gated worker
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []store.TraceID
	for i := 0; i < n; i++ {
		job := testJob(620 + i)
		resp, body := postBlob(t, ts.URL, encodeJob(t, job))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d body %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			<-exec.entered // the worker now holds trace 0; the rest queue
		}
		id, _, err := store.TraceKey(job)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before := st.Stats().GroupSyncs
	release()
	for _, id := range ids {
		waitResult(t, ts.URL, id)
	}
	waitIdle(t, s)
	if got := s.Index().Len(); got != n {
		t.Fatalf("indexed %d traces, want %d", got, n)
	}
	if commits := st.Stats().GroupSyncs - before; commits >= n {
		t.Fatalf("%d queued traces took %d outcome commits, want fewer than %d", n, commits, n)
	}
}
