package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestLoadGeneratorConnectionCap drives nproc clients that rotate over
// three hosts, as the cluster workload does, and checks the load generator never
// has more than nproc connections open.
func TestLoadGeneratorConnectionCap(t *testing.T) {
	var hosts []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		}))
		defer srv.Close()
		hosts = append(hosts, strings.TrimPrefix(srv.URL, "http://"))
	}
	rc := &runCtx{nproc: runtime.NumCPU()}
	cc := &connCounter{}
	clients := newClients(rc, cc)
	err := runClients(clients, func(i int, c *client) error {
		for round := 0; round < 50; round++ {
			status, _, err := c.do(context.Background(), http.MethodGet, hosts[(i+round)%len(hosts)], "/", "", nil)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				t.Errorf("status %d", status)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	closeClients(clients)
	if p := cc.peak.Load(); p > int64(rc.nproc) || p == 0 {
		t.Fatalf("peak open connections %d, cap %d", p, rc.nproc)
	}
	if n := cc.open.Load(); n != 0 {
		t.Fatalf("%d connections still open after closing the clients", n)
	}
}
