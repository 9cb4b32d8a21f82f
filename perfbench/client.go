package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator: every client is one goroutine owning one HTTP
// transport that holds at most one connection, so the process never
// has more connections open than it has clients. A client that moves
// to another host (the cluster's rotating entry node) closes its idle
// connection first. Connections are counted at the dialer, where the
// limit is enforced from the client's side.

// connCounter counts open client connections and remembers the peak.
type connCounter struct {
	open, peak atomic.Int64
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// client is one closed-loop load client.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	host string // host of the connection it may hold
}

func newClient(cc *connCounter) *client {
	tr := &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     1,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request to host (host:port) and returns the status and
// body. Non-2xx statuses are returned, not turned into errors.
func (c *client) do(ctx context.Context, method, host, path, ctype string, body []byte) (int, []byte, error) {
	if c.host != host {
		c.tr.CloseIdleConnections()
		c.host = host
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+host+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// runClients runs fn once per client on its own goroutine until each
// returns, and returns the first error.
func runClients(clients []*client, fn func(i int, c *client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pollSleep waits about 50µs by blocking the OS thread in nanosleep:
// time.Sleep below a millisecond rounds up to the poller's millisecond
// tick, which would swamp sub-millisecond visibility latencies, and
// spinning would steal the CPU the server needs.
func pollSleep() {
	ts := syscall.Timespec{Nsec: 50_000}
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just polls early
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
