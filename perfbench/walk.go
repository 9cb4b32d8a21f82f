package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/segment"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The layer walk calls the layers' public functions one at a time, in
// the order the server runs them for one ingest —
//
//	UnmarshalBinary → store.TraceKey → PutTraceBytesCtx → Categorize /
//	CategorizeExplained → PutResultCtx / PutExplanation → index.Add
//
// — and then the read path (store.Open, index Rebuild, QueryIDs,
// AxisCounts, GetResult, MergeSorted) over the workload's own store.
// Each call is timed on its own, which is the only way to separate
// store.TraceKey from decode: the server's ingest.decode span covers
// both. Inside Categorize the walk repeats the sub-stages through their
// packages' public functions (interval Clip+Merge, core.Chunks, segment
// Split+Detect) and reports how much of Categorize they account for.

// walkSample is how many of the workload's traces the walk pushes
// through the write path, and walkReps how often each read call is
// repeated.
const (
	walkSample = 64
	walkReps   = 200
)

// queryShapes is the fixed query mix, by shape name (limit=100 on the
// wire). point, and_not and not_heavy are the repository's pinned
// BenchmarkQuery shapes (internal/benchsuite: point, and_heavy,
// not_heavy), so this benchmark and the pinned one measure the same
// plans; or is the union inside not_heavy on its own, a shape of the
// index's differential tests.
var queryShapes = [...]struct{ name, q string }{
	{"point", "metadata_high_spike"},
	{"and_not", "periodic_minute AND write_on_end AND NOT metadata_insignificant_load"},
	{"or", "write_on_end OR read_on_start"},
	{"not_heavy", "NOT (write_on_end OR read_on_start) NOT metadata_high_spike"},
}

// everything matches every indexed trace.
const everything = "read_insignificant OR NOT read_insignificant"

// walkResult is the walk's measurements, keyed by per-layer metric name.
type walkResult map[string]float64

// layerWalk walks blobs (raw MOSD uploads drawn from the workload's own
// inputs) through the write path into a private Sync store under dir,
// then walks the read path over the store at readDir (the workload's
// own store, closed; "" walks the private store). Every call is
// recorded as a span in rec.
func layerWalk(dir string, blobs [][]byte, readDir string, seed int64, rec *reqtrace.Recorder) (walkResult, error) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	fp := cfg.Fingerprint()
	exOpts := explain.Options{Margin: 0.05}.Normalized()
	wdir := filepath.Join(dir, "walk")
	st, err := store.Open(wdir, storeOptions)
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	ix := index.New()
	s0 := st.Stats()

	var (
		decode, key, putTrace, cat, catEx, putRes, putEx, add, merge, chunks, detect samples
		decodeAllocs, catAllocs, bytes                                               samples
	)
	timed := func(t *reqtrace.Trace, name string, s *samples, fn func()) {
		start := time.Now()
		fn()
		d := time.Since(start)
		*s = append(*s, float64(d.Nanoseconds())/1e3)
		t.AddCompleted(t.Root(), name, start, d)
	}
	for _, blob := range blobs {
		t := reqtrace.New(reqtrace.StartOptions{Method: "WALK", Route: "layer-walk", OnDone: rec.Complete})
		bytes = append(bytes, float64(len(blob)))
		var j *darshan.Job
		var derr error
		timed(t, "darshan.decode", &decode, func() { j, derr = darshan.UnmarshalBinary(blob) })
		if derr != nil {
			return nil, fmt.Errorf("walk decode: %w", derr)
		}
		decodeAllocs = append(decodeAllocs, allocsOf(func() { _, _ = darshan.UnmarshalBinary(blob) }))
		var id store.TraceID
		var canon []byte
		timed(t, "store.tracekey", &key, func() { id, canon, derr = store.TraceKey(j) })
		if derr != nil {
			return nil, fmt.Errorf("walk trace key: %w", derr)
		}
		timed(t, "store.put_trace", &putTrace, func() { _, _, derr = st.PutTraceBytesCtx(ctx, canon) })
		if derr != nil {
			return nil, fmt.Errorf("walk put trace: %w", derr)
		}
		var res *core.Result
		timed(t, "core.categorize", &cat, func() { res, derr = core.Categorize(j, cfg) })
		if derr != nil {
			return nil, fmt.Errorf("walk categorize: %w", derr)
		}
		catAllocs = append(catAllocs, allocsOf(func() { _, _ = core.Categorize(j, cfg) }))
		var expl *explain.Explanation
		timed(t, "core.categorize_explained", &catEx, func() { _, expl, derr = core.CategorizeExplained(j, cfg, exOpts) })
		if derr != nil {
			return nil, fmt.Errorf("walk categorize explained: %w", derr)
		}
		subStages(t, j, res, cfg, &merge, &chunks, &detect)
		timed(t, "store.put_result", &putRes, func() { derr = st.PutResultCtx(ctx, id, fp, res) })
		if derr != nil {
			return nil, fmt.Errorf("walk put result: %w", derr)
		}
		timed(t, "store.put_explanation", &putEx, func() { _, derr = st.PutExplanation(id, fp, expl) })
		if derr != nil {
			return nil, fmt.Errorf("walk put explanation: %w", derr)
		}
		timed(t, "index.add", &add, func() { ix.Add(id, res.Categories) })
		t.FinishRoot(200)
	}
	s1 := st.Stats()
	n := float64(len(blobs))
	catSum, subSum := cat.sum(), merge.sum()+chunks.sum()+detect.sum()
	r := walkResult{
		"darshan.decode_us":             decode.median(),
		"darshan.decode_allocs":         decodeAllocs.mean(),
		"darshan.bytes_per_trace":       bytes.mean(),
		"store.tracekey_us":             key.median(),
		"store.put_trace_us":            putTrace.median(),
		"store.put_result_us":           putRes.median(),
		"store.put_explanation_us":      putEx.median(),
		"store.bytes_written_per_trace": float64(s1.DiskBytes-s0.DiskBytes) / n,
		"core.categorize_us":            cat.median(),
		"core.categorize_mean_us":       cat.mean(),
		"core.categorize_explained_us":  catEx.median(),
		"core.categorize_allocs":        catAllocs.mean(),
		"core.stage_coverage":           subSum / catSum,
		"interval.merge_us":             merge.mean(),
		"core.chunks_us":                chunks.mean(),
		"segment.detect_us":             detect.mean(),
		"index.add_us":                  add.median(),
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	st = nil
	if readDir == "" {
		readDir = wdir
	}
	if err := walkReads(r, readDir, fp, seed, rec); err != nil {
		return nil, err
	}
	return r, nil
}

// subStages times Categorize's sub-stages for both directions through
// the public functions Categorize composes: interval.Clip+Merge (with
// the configured neighbour policy), core.Chunks, and — on significant
// directions only, as Categorize does — segment Split+Detect with Mean
// Shift. Times are per trace (both directions summed), in µs.
func subStages(t *reqtrace.Trace, j *darshan.Job, res *core.Result, cfg core.Config, merge, chunks, detect *samples) {
	policy := interval.NeighborPolicy{RuntimeFraction: cfg.MergeRuntimeFraction, NeighborFraction: cfg.MergeNeighborFraction}
	reads, writes := j.ReadIntervals(), j.WriteIntervals()
	if !cfg.DisableDXT && j.HasDXT() {
		reads, writes = j.ReadIntervalsDXT(), j.WriteIntervalsDXT()
	}
	var mSum, cSum, dSum time.Duration
	for i, raw := range [][]interval.Interval{reads, writes} {
		rep := &res.Read
		if i == 1 {
			rep = &res.Write
		}
		start := time.Now()
		merged := interval.Merge(interval.Clip(raw, j.Runtime), j.Runtime, policy)
		d := time.Since(start)
		mSum += d
		t.AddCompleted(t.Root(), "interval.merge", start, d)
		start = time.Now()
		core.Chunks(merged, j.Runtime, cfg.ChunkCount)
		d = time.Since(start)
		cSum += d
		t.AddCompleted(t.Root(), "core.chunks", start, d)
		if rep.Temporal == category.Insignificant {
			continue
		}
		start = time.Now()
		_, _ = segment.Detect(segment.Split(merged, j.Runtime), segment.DetectConfig{
			Bandwidth: cfg.MeanShiftBandwidth, Kernel: cfg.MeanShiftKernel,
			MinGroupSize: cfg.MinGroupSize, MinCoverage: cfg.MinGroupCoverage,
			Features: segment.FeatureConfig{Runtime: j.Runtime, VolumeLogScale: cfg.VolumeLogScale},
		})
		d = time.Since(start)
		dSum += d
		t.AddCompleted(t.Root(), "segment.detect", start, d)
	}
	*merge = append(*merge, float64(mSum.Nanoseconds())/1e3)
	*chunks = append(*chunks, float64(cSum.Nanoseconds())/1e3)
	*detect = append(*detect, float64(dSum.Nanoseconds())/1e3)
}

// walkReads walks the read path over the store at dir: the timed open
// (restart), the index rebuild, every query shape, AxisCounts after a
// one-trace mutation, GetResult on IDs drawn uniformly from the store,
// and the K-way merge of three shard answers.
func walkReads(r walkResult, dir, fp string, seed int64, rec *reqtrace.Recorder) error {
	t := reqtrace.New(reqtrace.StartOptions{Method: "WALK", Route: "read-walk", OnDone: rec.Complete})
	defer t.FinishRoot(200)
	start := time.Now()
	st, err := store.Open(dir, storeOptions)
	if err != nil {
		return err
	}
	defer st.Close()
	d := time.Since(start)
	t.AddCompleted(t.Root(), "store.open", start, d)
	r["store.open_s"] = d.Seconds()

	ix := index.New()
	start = time.Now()
	if _, err := ix.Rebuild(st, fp); err != nil {
		return err
	}
	d = time.Since(start)
	t.AddCompleted(t.Root(), "index.rebuild", start, d)
	r["index.rebuild_s"] = d.Seconds()

	all, err := ix.QueryIDs(everything)
	if err != nil {
		return err
	}
	if len(all) == 0 {
		return fmt.Errorf("read walk: store %s holds no results", dir)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "walk")))
	rep := func(name string, reps int, fn func() error) error {
		var s samples
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("read walk %s: %w", name, err)
			}
			d := time.Since(start)
			s = append(s, float64(d.Nanoseconds())/1e3)
			if i%20 == 0 {
				t.AddCompleted(t.Root(), name, start, d)
			}
		}
		r[name+"_us"] = s.median()
		return nil
	}
	for _, sh := range queryShapes {
		q := sh.q
		if err := rep("index.query_"+sh.name, walkReps, func() error { _, err := ix.QueryIDs(q); return err }); err != nil {
			return err
		}
	}
	var mutate []category.Category
	if err := rep("index.axiscounts", walkReps, func() error {
		// A one-trace re-add publishes a new snapshot, which expires
		// the AxisCounts cache: this times the recomputation a write
		// forces on the next /v1/stats.
		id := store.TraceID(all[rng.Intn(len(all))])
		mutate = ix.Categories(id)
		ix.Add(id, category.NewSet(mutate...))
		ix.AxisCounts()
		return nil
	}); err != nil {
		return err
	}
	if err := rep("store.get_result", walkReps, func() error {
		_, ok, err := st.GetResult(store.TraceID(all[rng.Intn(len(all))]), fp)
		if err == nil && !ok {
			err = fmt.Errorf("indexed result missing from the store")
		}
		return err
	}); err != nil {
		return err
	}
	shards := make([][]string, 3)
	for i, id := range all {
		shards[i%3] = append(shards[i%3], id)
	}
	for _, s := range shards {
		sort.Strings(s)
	}
	return rep("ring.merge", 20, func() error { index.MergeSorted(shards...); return nil })
}

// allocsOf counts heap allocations made by one call of fn.
func allocsOf(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// walkBlobs draws the walk's sample from a workload's fresh-trace
// source, at indexes no timed phase uses.
func walkBlobs(p *pool) ([][]byte, error) {
	var out [][]byte
	for k := 0; k < walkSample; k++ {
		b, _, err := p.variant(nil, 1<<30+k)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
