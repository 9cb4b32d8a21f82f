package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// corpus: mosaic.AnalyzeCorpusContext over a generated corpus directory
// with Workers = nproc, pass after pass. One operation is one trace
// through the pipeline; p50_ms is the median pass.

// passSummary is what one pass produced, kept for the checks that run
// after the timed phase.
type passSummary struct {
	funnel mosaic.FunnelStats
	apps   map[string][]string
}

type corpusPhase struct {
	pr     phaseResult
	passMS samples
	traces int
	passes []passSummary
}

// runCorpusPhase analyses the corpus pass after pass until seconds of
// pipeline time have passed. Only the AnalyzeCorpusContext calls are
// timed; summarising a pass for the checks is not.
func runCorpusPhase(rc *runCtx, dir string, seconds float64, obs mosaic.Observer) (*corpusPhase, error) {
	cp := &corpusPhase{}
	ph := beginPhase()
	var wall, cpu float64
	for wall < seconds {
		c0, t0 := cpuSeconds(), time.Now()
		an, err := mosaic.AnalyzeCorpusContext(context.Background(), dir, mosaic.Options{Workers: rc.nproc, Observer: obs})
		d := time.Since(t0).Seconds()
		cpu += cpuSeconds() - c0
		wall += d
		if err != nil {
			ph.end()
			return nil, err
		}
		cp.passMS = append(cp.passMS, d*1000)
		cp.traces += an.Funnel.Total
		sum := passSummary{funnel: an.Funnel, apps: make(map[string][]string, len(an.Apps))}
		for _, a := range an.Apps {
			sum.apps[a.Result.User+"/"+a.Result.App] = a.Result.Labels
		}
		cp.passes = append(cp.passes, sum)
		if p, ok := obs.(*engineProbe); ok {
			p.endPass()
		}
	}
	cp.pr = phaseResult{
		wall: wall, cpu: cpu, peakMB: ph.end().peakMB, ops: cp.traces,
		p50: cp.passMS.median(), latN: len(cp.passMS),
	}
	return cp, nil
}

// checkCorpus compares every pass with the reference: the funnel
// statistics, then each application's label set. Each mismatch is one
// failed operation.
func checkCorpus(t *tally, ref *corpusReference, passes []passSummary) {
	for i, p := range passes {
		if msg := funnelDiff(ref.funnel, p.funnel); msg != "" {
			t.fail("pass %d funnel: %s", i, msg)
		} else {
			t.ok()
		}
		for app, want := range ref.apps {
			got, ok := p.apps[app]
			switch {
			case !ok:
				t.fail("pass %d: app %s missing from the analysis", i, app)
			case sortedLabels(got) != sortedLabels(want):
				t.fail("pass %d: app %s labels %v, reference %v", i, app, got, want)
			default:
				t.ok()
			}
		}
		for app := range p.apps {
			if _, ok := ref.apps[app]; !ok {
				t.fail("pass %d: app %s not in the reference", i, app)
			}
		}
	}
}

func funnelDiff(want, got mosaic.FunnelStats) string {
	if want.Total != got.Total || want.Corrupted != got.Corrupted || want.Valid != got.Valid || want.UniqueApps != got.UniqueApps {
		return fmt.Sprintf("total/corrupted/valid/apps %d/%d/%d/%d, reference %d/%d/%d/%d",
			got.Total, got.Corrupted, got.Valid, got.UniqueApps, want.Total, want.Corrupted, want.Valid, want.UniqueApps)
	}
	if len(want.ByReason) != len(got.ByReason) {
		return fmt.Sprintf("eviction reasons %v, reference %v", got.ByReason, want.ByReason)
	}
	for k, v := range want.ByReason {
		if got.ByReason[k] != v {
			return fmt.Sprintf("eviction reasons %v, reference %v", got.ByReason, want.ByReason)
		}
	}
	return ""
}

func runCorpus(rc *runCtx) (*outcome, error) {
	o := &outcome{}
	var setup samples
	var dir string
	var ref *corpusReference
	for i := 0; i < setups; i++ {
		start := time.Now()
		d, r, err := corpusSetup(rc.cache, rc.seed, rc.nproc)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		dir, ref = d, r
	}
	bytes, files := dirSize(dir)
	o.env = append(o.env, fmt.Sprintf("corpus: %d traces (%d files, %.1f MiB gzip MOSD), %d apps planned, %d survive the funnel",
		ref.funnel.Total, files, float64(bytes)/(1<<20), corpusApps, ref.funnel.UniqueApps))

	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	base, err := runCorpusPhase(rc, dir, seconds, nil)
	if err != nil {
		return nil, err
	}
	checkCorpus(&o.tally, ref, base.passes)
	if o.e2e, err = endToEndMetrics(setup, base.pr); err != nil {
		return nil, err
	}
	o.report = []metric{
		{Name: "traces_per_s", Value: float64(base.traces) / base.pr.wall, Unit: "1/s"},
		{Name: "pass_ms", Value: base.passMS.median(), Unit: "ms", N: len(base.passMS)},
	}
	if !rc.trace {
		return o, nil
	}

	rec := reqtrace.NewRecorder(reqtrace.RecorderConfig{Capacity: 2 * ref.funnel.Total})
	probe := newEngineProbe(rec)
	traced, err := runCorpusPhase(rc, dir, seconds, probe)
	if err != nil {
		return nil, err
	}
	checkCorpus(&o.tally, ref, traced.passes)
	tracedE2E, err := endToEndMetrics(setup, traced.pr)
	if err != nil {
		return nil, err
	}
	blobs, err := corpusWalkBlobs(dir, rc.seed)
	if err != nil {
		return nil, err
	}
	values, err := layerWalk(rc.scratch, blobs, "", rc.seed, rec)
	if err != nil {
		return nil, err
	}
	probe.values(values, traced.traces, len(traced.passMS))
	lr := &layerReport{
		values:   values,
		basis:    metric{Name: "pass_ms", Value: traced.passMS.median(), Unit: "ms"},
		overhead: overheadOf(o.e2e, tracedE2E),
		chrome:   filepath.Join(rc.work, fmt.Sprintf("trace-corpus-s%d.json", rc.seed)),
	}
	if _, err := writeChrome(rec, lr.chrome, ""); err != nil {
		return nil, err
	}
	o.layers = lr
	return o, nil
}

// corpusWalkBlobs draws the walk's sample from the corpus files: valid
// traces only (the walk categorizes each), as the gzip MOSD bytes the
// pipeline reads, so the walk's decode inflates them as the pipeline's
// does.
func corpusWalkBlobs(dir string, seed int64) ([][]byte, error) {
	paths, err := darshan.ListCorpus(dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "corpus-walk")))
	var out [][]byte
	for _, i := range rng.Perm(len(paths)) {
		b, err := os.ReadFile(paths[i])
		if err != nil {
			return nil, err
		}
		if j, err := darshan.UnmarshalBinary(b); err != nil || darshan.Validate(j) != nil {
			continue
		}
		if out = append(out, b); len(out) == walkSample {
			break
		}
	}
	return out, nil
}

func dirSize(dir string) (int64, int) {
	entries, _ := os.ReadDir(dir)
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, len(entries)
}

// engineProbe is the traced corpus run's in-memory engine observer:
// per-stage item busy time from the SpanObserver seam, stage walls and
// funnel counts from a per-pass engine.Stats, and one reqtrace trace per
// corpus entry (decode and funnel spans) or application (categorize
// span) for the Chrome trace.
type engineProbe struct {
	*engine.Stats
	rec *reqtrace.Recorder

	mu       sync.Mutex
	busy     map[engine.StageID]time.Duration
	open     map[string]*reqtrace.Trace
	scan     time.Duration
	agg      time.Duration
	in, kept int64
}

func newEngineProbe(rec *reqtrace.Recorder) *engineProbe {
	return &engineProbe{
		Stats: engine.NewStats(), rec: rec,
		busy: map[engine.StageID]time.Duration{}, open: map[string]*reqtrace.Trace{},
	}
}

// ItemSpan implements engine.SpanObserver.
func (p *engineProbe) ItemSpan(stage engine.StageID, name string, start time.Time, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy[stage] += d
	t, ok := p.open[name]
	if !ok {
		t = reqtrace.New(reqtrace.StartOptions{Method: "ENGINE", Route: "corpus-entry", Start: start, OnDone: p.rec.Complete})
		p.open[name] = t
	}
	t.AddCompleted(t.Root(), "engine:"+string(stage), start, d, reqtrace.Str("item", name))
	if stage == engine.StageFunnel || stage == engine.StageCategorize {
		delete(p.open, name)
		t.FinishRoot(200)
	}
}

// endPass folds the pass's stage walls and funnel counts in and starts
// a fresh per-pass collector.
func (p *engineProbe) endPass() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scan += p.Stats.Stage(engine.StageScan).Wall
	p.agg += p.Stats.Stage(engine.StageAggregate).Wall
	f := p.Stats.Stage(engine.StageFunnel)
	p.in += f.In
	p.kept += f.Out
	for name, t := range p.open {
		delete(p.open, name)
		t.FinishRoot(200)
	}
	p.Stats = engine.NewStats()
}

// values adds the engine metrics: busy time per trace entering the
// pipeline, and per-pass stage walls.
func (p *engineProbe) values(v walkResult, traces, passes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range []engine.StageID{engine.StageDecode, engine.StageFunnel, engine.StageCategorize} {
		v["engine."+string(s)+"_busy_us"] = float64(p.busy[s].Nanoseconds()) / 1e3 / float64(traces)
	}
	v["engine.scan_wall_s"] = p.scan.Seconds() / float64(passes)
	v["engine.aggregate_wall_s"] = p.agg.Seconds() / float64(passes)
	if p.in > 0 {
		v["engine.funnel_kept_ratio"] = float64(p.kept) / float64(p.in)
	}
}
