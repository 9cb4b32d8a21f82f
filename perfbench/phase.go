package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// phase measures one timed phase: operations completed, their
// latencies by class, process CPU and wall time, and the peak heap in
// use.
type phase struct {
	start time.Time
	cpu0  float64

	mu  sync.Mutex
	ops int
	lat []samples // by latency class

	stop, done chan struct{}
	peak       uint64
}

// phaseResult is a finished phase.
type phaseResult struct {
	wall, cpu, peakMB float64
	ops               int     // operations completed
	p50               float64 // mean of the latency classes' medians (ms)
	latN              int     // latency samples behind p50
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// beginPhase starts measuring a phase. Garbage left by set-up is
// collected first, so the heap peak belongs to the phase.
func beginPhase() *phase {
	runtime.GC()
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	p.start, p.cpu0 = time.Now(), cpuSeconds()
	go p.sample()
	return p
}

// sample tracks the heap peak until the phase ends.
func (p *phase) sample() {
	defer close(p.done)
	s := []metrics.Sample{{Name: heapMetric}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > p.peak {
			p.peak = v
		}
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// finished records one completed operation and its latency (ms) in a
// latency class, one per kind of operation (a query shape, stats, a
// lookup). p50_ms is the mean of the classes' medians, so a mix of kinds
// with different latencies never puts the median in the gap between
// them.
func (p *phase) finished(latMS float64, class int) {
	p.mu.Lock()
	p.ops++
	for len(p.lat) <= class {
		p.lat = append(p.lat, nil)
	}
	p.lat[class] = append(p.lat[class], latMS)
	p.mu.Unlock()
}

func (p *phase) end() phaseResult {
	close(p.stop)
	<-p.done
	pr := phaseResult{
		wall: time.Since(p.start).Seconds(), cpu: cpuSeconds() - p.cpu0,
		peakMB: float64(p.peak) / (1 << 20), ops: p.ops,
	}
	pr.p50, _ = meanOfMedians(p.lat)
	for _, s := range p.lat {
		pr.latN += len(s)
	}
	return pr
}

// endToEndMetrics assembles the gated metrics of one run from the
// set-up times and the timed phase. A phase that completed nothing
// yields no metrics.
func endToEndMetrics(setup samples, pr phaseResult) ([]metric, error) {
	if pr.ops == 0 {
		return nil, fmt.Errorf("the timed phase completed no operation")
	}
	return []metric{
		{Name: "setup_s", Value: setup.median(), Unit: "s", N: len(setup)},
		{Name: "ops_per_s", Value: float64(pr.ops) / pr.wall, Unit: "1/s", N: pr.ops},
		{Name: "p50_ms", Value: pr.p50, Unit: "ms", N: pr.latN},
		{Name: "cpu_ms_per_op", Value: 1000 * pr.cpu / float64(pr.ops), Unit: "ms", N: pr.ops},
		{Name: "peak_heap_mb", Value: pr.peakMB, Unit: "MiB"},
	}, nil
}

// environment describes the machine and the fixed settings a run's
// numbers depend on.
func environment(rc *runCtx) []string {
	return []string{
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s", rc.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("filesystem=%s (work dir)", fsType(rc.work)),
		"fsync policy: store.Options{Sync: true} on every store: group-committed fsync before each ack",
		"store read cache 32 MiB per store (the mosaic-serve default)",
		fmt.Sprintf("load: %d client goroutines, one connection each, closed loop", rc.nproc),
		"gated rate, p50 and CPU cost: over the whole timed phase",
	}
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
