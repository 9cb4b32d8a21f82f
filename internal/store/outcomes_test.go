package store

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// TestPutOutcomesOneCommit: a trace's result and explanation are one
// staged write acknowledged by one fsync covering both frames, and both
// read back after reopen.
func TestPutOutcomesOneCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := TraceKey(testJob(21))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	res, expl := testExplained(t, 21)
	sizes, err := s.PutOutcomes(context.Background(), fp, []Outcome{{ID: id, Result: res, Explanation: expl}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] <= 0 {
		t.Fatalf("explanation sizes = %v, want one positive size", sizes)
	}
	st := s.Stats()
	if st.GroupSyncs != 1 || st.SyncedFrames != 2 {
		t.Fatalf("result + explanation cost %d fsyncs covering %d frames, want 1 covering 2",
			st.GroupSyncs, st.SyncedFrames)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	back, ok, err := s2.GetResult(id, fp)
	if err != nil || !ok {
		t.Fatalf("result after reopen: ok=%v err=%v", ok, err)
	}
	if len(back.Labels) != len(res.Labels) {
		t.Fatalf("result labels %v, want %v", back.Labels, res.Labels)
	}
	ex, ok, err := s2.GetExplanation(id, fp)
	if err != nil || !ok {
		t.Fatalf("explanation after reopen: ok=%v err=%v", ok, err)
	}
	if ex.EvidenceCount() != expl.EvidenceCount() {
		t.Fatal("explanation lost evidence across reopen")
	}
}

// TestPutOutcomesTornTail: a crash that cuts the second frame of one
// outcome write keeps the first frame and drops only the torn one.
func TestPutOutcomesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := TraceKey(testJob(22))
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	res, expl := testExplained(t, 22)
	if _, err := s.PutOutcomes(context.Background(), fp, []Outcome{{ID: id, Result: res, Explanation: expl}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-5); err != nil { // torn inside the explanation frame
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.HasResult(id, fp) {
		t.Fatal("the fully written result frame was lost")
	}
	if s2.HasExplanation(id, fp) {
		t.Fatal("the torn explanation frame was indexed")
	}
	if st := s2.Stats(); st.Results != 1 || st.Explanations != 0 || st.DroppedTailBytes == 0 {
		t.Fatalf("recovered %d results / %d explanations, dropped %d bytes; want 1 / 0 / > 0",
			st.Results, st.Explanations, st.DroppedTailBytes)
	}
}

// TestPutOutcomesInvalidRecordWritesNothing: one invalid record in a
// group (an unencodable result, a malformed ID) fails the put before
// anything is appended or indexed.
func TestPutOutcomesInvalidRecordWritesNothing(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := core.DefaultConfig().Fingerprint()
	good, _, err := TraceKey(testJob(23))
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := TraceKey(testJob(24))
	if err != nil {
		t.Fatal(err)
	}
	res, expl := testExplained(t, 23)
	bad := *res
	bad.Runtime = math.NaN() // JSON cannot encode NaN
	for name, outs := range map[string][]Outcome{
		"unencodable result": {
			{ID: good, Trace: encodedJob(t, 23), Result: res, Explanation: expl},
			{ID: other, Result: &bad},
		},
		"invalid id": {
			{ID: good, Trace: encodedJob(t, 23), Result: res, Explanation: expl},
			{ID: "not-a-digest", Result: res},
		},
	} {
		if _, err := s.PutOutcomes(context.Background(), fp, outs); err == nil {
			t.Fatalf("%s: PutOutcomes succeeded", name)
		}
		st := s.Stats()
		if st.DiskBytes != 0 || st.Traces != 0 || st.Results != 0 || st.Explanations != 0 {
			t.Fatalf("%s: group partially written: %+v", name, st)
		}
		if s.HasTrace(good) || s.HasResult(good, fp) || s.HasExplanation(good, fp) {
			t.Fatalf("%s: records of the valid outcome were indexed", name)
		}
	}
}

// TestCachingExecutorMissIsOneCommit: a cold explained categorization
// writes back trace, result and explanation in one durable commit, and
// the warm repeat writes nothing.
func TestCachingExecutorMissIsOneCommit(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exec := NewCachingExecutor(s, engine.Local{Workers: 1})
	exec.StoreTraces = true
	cfg := core.DefaultConfig()
	j := testJob(25)
	if _, _, err := exec.CategorizeExplained(context.Background(), j, cfg, explain.Options{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GroupSyncs != 1 || st.SyncedFrames != 3 {
		t.Fatalf("miss cost %d fsyncs covering %d frames, want 1 covering 3", st.GroupSyncs, st.SyncedFrames)
	}
	id, _, err := TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()
	if !s.HasTrace(id) || !s.HasResult(id, fp) || !s.HasExplanation(id, fp) {
		t.Fatal("write-back missed a record")
	}
	if _, _, err := exec.CategorizeExplained(context.Background(), j, cfg, explain.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().GroupSyncs; got != 1 || exec.Hits() != 1 {
		t.Fatalf("warm repeat: %d fsyncs, %d hits; want 1, 1", got, exec.Hits())
	}
}
