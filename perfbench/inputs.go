package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Input profiles. Every input is made by internal/gen from the run's
// seed; the program under test only ever sees the encoded bytes.
const (
	// poolSize is the number of distinct generated traces fresh ingests
	// are drawn from: one run of each of poolSize applications, so the
	// pool follows the default archetype mix.
	poolSize = 512
	// corpusApps shapes the batch corpus the way the paper's Blue
	// Waters corpus is shaped: corpusApps applications of the default
	// archetype mix, each with its geometric run count and 32%
	// corruption, so only a few percent of the traces survive
	// deduplication. The plan is fixed, so every seed analyses the
	// same number of traces (3,554).
	corpusApps = 245
	// preloadResults is the query workload's store size: pool results
	// re-keyed to distinct IDs, ~1 KiB each on disk, well above the
	// store's 32 MiB read cache.
	preloadResults = 200_000
	// preloadPool is how many distinct generated traces the preloaded
	// results are made from: enough that each category's share of the
	// store varies little from seed to seed.
	preloadPool = 4096
	// inputVersion names the cache layout; bump it when a profile
	// changes so stale caches are never reused.
	inputVersion = "v3"
)

// subSeed derives an independent generator seed for one input kind, so
// the pool, the corpus and the preload IDs of one seed share nothing.
func subSeed(seed int64, kind string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", kind, seed)
	return int64(h.Sum64() >> 1)
}

// The application plans are fixed per input kind; the seed picks which
// runs of each application the inputs use. Runs of one application
// share its parameters but differ in timing jitter, volumes and
// corruption, so a new seed gives new traces while the mix of trace
// sizes — and with it the work per input — stays the same from seed to
// seed. A plan drawn per seed made the corpus 20% larger for one seed
// than for another.

// fixedPlan is the application plan of one input kind.
func fixedPlan(kind string, apps int, corruption float64) *gen.Corpus {
	prof := gen.DefaultProfile()
	prof.Apps = apps
	prof.Seed = subSeed(0, kind)
	prof.CorruptionRate = corruption
	return gen.Plan(prof)
}

// firstRun is the index of the first run of application app that the
// seed's inputs use.
func firstRun(seed int64, kind string, app int) int {
	return int(uint64(subSeed(seed, fmt.Sprintf("%s/run/%d", kind, app))) % 1_000_000)
}

// pool is the fresh-trace source of the serve workloads: poolSize
// categorized base traces and, for each, its reference labels computed
// with core.Categorize.
type pool struct {
	seed   int64
	jobs   []*darshan.Job
	labels [][]string
	perm   []int
	jobIDs uint64 // JobID base of this seed's variants
}

// variant returns the k-th fresh trace of the seed: base trace
// perm[k mod poolSize] with a JobID no other k or seed uses, so its
// content address is new and the server pays the whole journey for it
// (the same device the repository's pinned cluster benchmarks use).
// The JobID does not enter categorization: the labels stay the base's.
func (p *pool) variant(dst []byte, k int) ([]byte, int, error) {
	b := p.perm[k%len(p.perm)]
	j := *p.jobs[b]
	j.JobID = p.jobIDs + uint64(k)
	out, err := darshan.AppendEncode(dst[:0], &j)
	return out, b, err
}

func genPool(seed int64) (*pool, error) {
	c := fixedPlan("pool", poolSize, 0)
	p := &pool{seed: seed}
	cfg := core.DefaultConfig()
	for i, app := range c.Apps {
		j := c.GenerateRun(app, firstRun(seed, "pool", i)).Job
		if err := darshan.Validate(j); err != nil {
			continue // the funnel would evict it: no visible result to wait for
		}
		res, err := core.Categorize(j, cfg)
		if err != nil {
			return nil, fmt.Errorf("categorizing pool trace %d: %w", len(p.jobs), err)
		}
		p.jobs = append(p.jobs, j)
		p.labels = append(p.labels, res.Labels)
	}
	p.finish()
	return p, nil
}

// finish derives the seed's deterministic send order and JobID range.
func (p *pool) finish() {
	rng := rand.New(rand.NewSource(subSeed(p.seed, "order")))
	p.perm = rng.Perm(len(p.jobs))
	p.jobIDs = uint64(subSeed(p.seed, "jobid"))&^0xFFFF_FFFF | 1<<62
}

// loadPool returns the seed's pool from the cache, generating and
// caching it first when missing. The file is a sequence of frames:
// [u32 blob length][MOSD blob][u32 labels length][comma-joined labels].
func loadPool(cache string, seed int64) (*pool, error) {
	path := filepath.Join(cache, fmt.Sprintf("pool-%s-n%d-s%d.bin", inputVersion, poolSize, seed))
	if p, err := readPool(path, seed); err == nil {
		return p, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	p, err := genPool(seed)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for i, j := range p.jobs {
		blob, err := darshan.MarshalBinary(j)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
		lab := strings.Join(p.labels[i], ",")
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(lab)))
		buf = append(buf, lab...)
	}
	if err := writeAtomic(path, buf); err != nil {
		return nil, err
	}
	return p, pruneCache(cache, "pool-")
}

func readPool(path string, seed int64) (*pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	p := &pool{seed: seed}
	next := func() ([]byte, error) {
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, err
		}
		b := make([]byte, binary.LittleEndian.Uint32(n[:]))
		_, err := io.ReadFull(r, b)
		return b, err
	}
	for {
		blob, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading pool cache %s: %w", path, err)
		}
		lab, err := next()
		if err != nil {
			return nil, fmt.Errorf("reading pool cache %s: %w", path, err)
		}
		j, err := darshan.UnmarshalBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("decoding pool cache %s: %w", path, err)
		}
		p.jobs = append(p.jobs, j)
		p.labels = append(p.labels, strings.Split(string(lab), ","))
	}
	if len(p.jobs) == 0 {
		return nil, fmt.Errorf("pool cache %s is empty", path)
	}
	p.finish()
	return p, nil
}

// corpusRef names one run of the corpus plan.
type corpusRef struct {
	app *gen.App
	run int
}

// corpusPlan lays out the seed's batch corpus: every run of every
// application of the plan, application by application.
func corpusPlan(seed int64) (*gen.Corpus, []corpusRef) {
	c := fixedPlan("corpus", corpusApps, gen.DefaultProfile().CorruptionRate)
	var refs []corpusRef
	for i, app := range c.Apps {
		first := firstRun(seed, "corpus", i)
		for r := 0; r < app.Runs; r++ {
			refs = append(refs, corpusRef{app, first + r})
		}
	}
	return c, refs
}

// corpusReference is what the batch pipeline must reproduce: the
// funnel statistics and each surviving application's labels, computed
// with core's funnel (Preprocess, in its streaming form) and serial
// core.Categorize over the generated jobs.
type corpusReference struct {
	funnel core.FunnelStats
	apps   map[string][]string // user/app -> labels
}

// corpusSetup generates the seed's corpus in memory — workers at a
// time, in plan order, so only one chunk of jobs plus each
// application's heaviest run is ever held — computes the reference, and
// writes the corpus directory (one gzip MOSD file per trace, named in
// plan order) when it is not cached yet.
func corpusSetup(cache string, seed int64, workers int) (string, *corpusReference, error) {
	dir := filepath.Join(cache, fmt.Sprintf("corpus-%s-a%d-s%d", inputVersion, corpusApps, seed))
	write := ""
	if _, err := os.Stat(dir); err != nil {
		write = dir + ".partial"
		if err := os.RemoveAll(write); err != nil {
			return "", nil, err
		}
		if err := os.MkdirAll(write, 0o755); err != nil {
			return "", nil, err
		}
	}
	c, refs := corpusPlan(seed)
	pp := core.NewPreprocessor()
	const chunk = 256
	jobs := make([]*darshan.Job, chunk)
	errs := make([]error, chunk)
	for lo := 0; lo < len(refs); lo += chunk {
		hi := min(lo+chunk, len(refs))
		var wg sync.WaitGroup
		var next atomic.Int64
		next.Store(int64(lo))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
					j := c.GenerateRun(refs[i].app, refs[i].run).Job
					jobs[i-lo], errs[i-lo] = j, nil
					if write != "" {
						errs[i-lo] = darshan.WriteFile(filepath.Join(write, fmt.Sprintf("%05d%s", i, darshan.ExtBinary)), j)
					}
				}
			}()
		}
		wg.Wait()
		for i := 0; i < hi-lo; i++ {
			if errs[i] != nil {
				return "", nil, errs[i]
			}
			pp.Add(jobs[i], nil)
		}
	}
	ref := &corpusReference{funnel: pp.Stats(), apps: map[string][]string{}}
	cfg := core.DefaultConfig()
	for _, g := range pp.Groups() {
		res, err := core.Categorize(g.Heaviest, cfg)
		if err != nil {
			return "", nil, fmt.Errorf("reference categorize %s/%s: %w", g.User, g.App, err)
		}
		ref.apps[g.User+"/"+g.App] = res.Labels
	}
	if write != "" {
		if err := os.Rename(write, dir); err != nil {
			return "", nil, err
		}
		if err := pruneCache(cache, "corpus-"); err != nil {
			return "", nil, err
		}
	}
	return dir, ref, nil
}

// preloadID is the content-address-shaped ID of the i-th preloaded
// result of a seed.
func preloadID(seed int64, i int) store.TraceID {
	return store.HashBytes(fmt.Appendf(nil, "perfbench-preload/%d/%d", seed, i))
}

// preload is the query workload's store input: preloadResults results
// made from preloadPool categorized generated traces, result i carrying
// the labels of pool trace i mod preloadPool.
type preload struct {
	seed   int64
	dir    string     // cached store directory (copied before each use)
	labels [][]string // labels of each pool trace
}

func (pl *preload) labelsOf(i int) []string { return pl.labels[i%len(pl.labels)] }

// loadPreload returns the seed's preloaded store, building and caching
// it when missing. The labels live in a sibling file, one pool trace
// per line.
func loadPreload(cache string, seed int64, workers int) (*preload, error) {
	dir := filepath.Join(cache, fmt.Sprintf("preload-%s-n%d-p%d-s%d", inputVersion, preloadResults, preloadPool, seed))
	pl := &preload{seed: seed, dir: dir}
	data, err := os.ReadFile(dir + ".labels")
	if _, serr := os.Stat(dir); err == nil && serr == nil {
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			pl.labels = append(pl.labels, strings.Split(line, ","))
		}
		return pl, nil
	}
	encoded, err := preloadResultsOf(seed, workers, pl)
	if err != nil {
		return nil, err
	}
	tmp := dir + ".partial"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	st, err := store.Open(tmp, store.Options{CacheBytes: -1})
	if err != nil {
		return nil, err
	}
	fp := core.DefaultConfig().Fingerprint()
	ctx := context.Background()
	for i := 0; i < preloadResults; i++ {
		if err := st.PutResultBytesCtx(ctx, preloadID(seed, i), fp, encoded[i%len(encoded)]); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	var lines []string
	for _, l := range pl.labels {
		lines = append(lines, strings.Join(l, ","))
	}
	if err := writeAtomic(dir+".labels", []byte(strings.Join(lines, "\n")+"\n")); err != nil {
		return nil, err
	}
	return pl, pruneCache(cache, "preload-")
}

// preloadResultsOf generates and categorizes the seed's preload pool
// (one valid run of each of preloadPool applications, workers at a
// time) and returns each result's stored JSON encoding, filling
// pl.labels.
func preloadResultsOf(seed int64, workers int, pl *preload) ([][]byte, error) {
	c := fixedPlan("preload", preloadPool, 0)
	encoded := make([][]byte, len(c.Apps))
	labels := make([][]string, len(c.Apps))
	errs := make([]error, len(c.Apps))
	cfg := core.DefaultConfig()
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(c.Apps); i = int(next.Add(1) - 1) {
				j := c.GenerateRun(c.Apps[i], firstRun(seed, "preload", i)).Job
				if darshan.Validate(j) != nil {
					continue
				}
				res, err := core.Categorize(j, cfg)
				if err == nil {
					encoded[i], err = json.Marshal(res)
					labels[i] = res.Labels
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	var out [][]byte
	for i := range encoded {
		if errs[i] != nil {
			return nil, fmt.Errorf("preload pool trace %d: %w", i, errs[i])
		}
		if encoded[i] != nil {
			out = append(out, encoded[i])
			pl.labels = append(pl.labels, labels[i])
		}
	}
	return out, nil
}

// cacheKeep is how many seeds' inputs of each kind stay cached: they
// are evicted oldest first so a long series of seeds does not fill the
// disk.
const cacheKeep = 2

func pruneCache(cache, prefix string) error {
	entries, err := os.ReadDir(cache)
	if err != nil {
		return err
	}
	type aged struct {
		path string
		mod  int64
	}
	var items []aged
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || strings.HasSuffix(name, ".partial") || strings.HasSuffix(name, ".labels") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		items = append(items, aged{filepath.Join(cache, name), info.ModTime().UnixNano()})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].mod > items[j].mod })
	for i := cacheKeep; i < len(items); i++ {
		if err := os.RemoveAll(items[i].path + ".labels"); err != nil {
			return err
		}
		if err := os.RemoveAll(items[i].path); err != nil {
			return err
		}
	}
	return nil
}

func writeAtomic(path string, data []byte) error {
	tmp := path + ".partial"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// copyDir copies a flat directory of regular files (a store's segment
// log) so each run mutates its own copy of a cached input.
func copyDir(dst, src string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(dst, e.Name()), filepath.Join(src, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
