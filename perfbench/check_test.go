package main

import (
	"context"
	"fmt"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Each correctness check must count a planted label mismatch as one
// failed operation, and pass the same data without the plant.

func TestCorpusCheckCatchesPlantedMismatch(t *testing.T) {
	funnel := mosaic.FunnelStats{Total: 5, Corrupted: 1, Valid: 4, UniqueApps: 2, ByReason: map[string]int{"negative_counter": 1}}
	ref := &corpusReference{funnel: funnel, apps: map[string][]string{
		"u1/a": {"read_on_start", "write_on_end"},
		"u2/b": {"write_periodic", "write_steady"},
	}}
	pass := func(b []string, f mosaic.FunnelStats) passSummary {
		return passSummary{funnel: f, apps: map[string][]string{"u1/a": {"write_on_end", "read_on_start"}, "u2/b": b}}
	}
	var good tally
	checkCorpus(&good, ref, []passSummary{pass([]string{"write_steady", "write_periodic"}, funnel)})
	if good.failed != 0 || good.attempted != 3 {
		t.Fatalf("clean pass: attempted %d failed %d (%v)", good.attempted, good.failed, good.notes)
	}
	var planted tally
	checkCorpus(&planted, ref, []passSummary{pass([]string{"write_steady"}, funnel)})
	if planted.failed != 1 {
		t.Fatalf("planted label mismatch: failed %d, want 1", planted.failed)
	}
	bad := funnel
	bad.Corrupted, bad.Valid = 2, 3
	var funnelPlant tally
	checkCorpus(&funnelPlant, ref, []passSummary{pass([]string{"write_steady", "write_periodic"}, bad)})
	if funnelPlant.failed != 1 {
		t.Fatalf("planted funnel mismatch: failed %d, want 1", funnelPlant.failed)
	}
}

func TestIngestCheckCatchesPlantedMismatch(t *testing.T) {
	nodes, _, err := startNodes(t.TempDir(), 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopNodes(nodes)
	p := &pool{labels: [][]string{{"read_on_start", "write_on_end"}}}
	ok, bad := store.HashBytes([]byte("ok")), store.HashBytes([]byte("bad"))
	ix := nodes[0].srv.Index()
	ix.Add(ok, labelSet([]string{"write_on_end", "read_on_start"}))
	ix.Add(bad, labelSet([]string{"read_on_start"}))
	owner := func(store.TraceID) *node { return nodes[0] }
	var good, planted tally
	checkLabels(&good, p, []ackedTrace{{id: ok}}, owner)
	checkLabels(&planted, p, []ackedTrace{{id: ok}, {id: bad}}, owner)
	if good.failed != 0 || planted.failed != 1 {
		t.Fatalf("failed: clean %d (want 0), planted %d (want 1)", good.failed, planted.failed)
	}
}

func TestClusterCheckCatchesPlantedMismatch(t *testing.T) {
	nodes, _, err := startNodes(t.TempDir(), clusterNodes, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopNodes(nodes)
	p := &pool{labels: [][]string{{"read_on_start", "write_on_end"}}}
	var acked []ackedTrace
	for i := 0; i < 6; i++ {
		blob := []byte(fmt.Sprintf("trace-%d", i))
		id := store.HashBytes(blob)
		owner := ownerOf(nodes, id)
		for _, rep := range nodes[0].srv.Cluster().Table().Replicas(string(id)) {
			for _, nd := range nodes {
				if nd.id == rep.ID {
					if _, _, err := nd.st.PutTraceBytes(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		owner.srv.Index().Add(id, labelSet(p.labels[0]))
		acked = append(acked, ackedTrace{id: id})
	}
	var good tally
	checkCluster(&good, nodes, p, &serveRun{acked: acked})
	if good.failed != 0 {
		t.Fatalf("clean cluster: %d failed (%v)", good.failed, good.notes)
	}
	planted := acked[2].id
	ownerOf(nodes, planted).srv.Index().Add(planted, labelSet([]string{"write_on_end"}))
	var labels tally
	checkCluster(&labels, nodes, p, &serveRun{acked: acked})
	if labels.failed != 1 {
		t.Fatalf("planted label mismatch: failed %d, want 1 (%v)", labels.failed, labels.notes)
	}
}

func TestQueryChecksCatchPlantedMismatch(t *testing.T) {
	if err := checkLookup([]byte(`{"categories":["b","a"]}`), []string{"a", "b"}); err != nil {
		t.Fatalf("clean lookup: %v", err)
	}
	if err := checkLookup([]byte(`{"categories":["a"]}`), []string{"a", "b"}); err == nil {
		t.Fatal("planted lookup mismatch passed")
	}

	nodes, _, err := startNodes(t.TempDir(), 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopNodes(nodes)
	pl := &preload{seed: 7, labels: [][]string{
		{"write_periodic", "read_on_start"},
		{"read_insignificant", "write_insignificant", "metadata_insignificant_load"},
	}}
	const preloaded = 10
	ix := nodes[0].srv.Index()
	for i := 0; i < preloaded; i++ {
		ix.Add(preloadID(pl.seed, i), labelSet(pl.labelsOf(i)))
	}
	ctx := context.Background()
	var good tally
	checkQueries(&good, ctx, nodes[0], &pool{}, pl, preloaded, nil)
	if good.failed != 0 || good.attempted != len(queryShapes) {
		t.Fatalf("clean store: attempted %d failed %d (%v)", good.attempted, good.failed, good.notes)
	}
	ix.Add(preloadID(pl.seed, 4), labelSet([]string{"metadata_high_spike"}))
	var planted tally
	checkQueries(&planted, ctx, nodes[0], &pool{}, pl, preloaded, nil)
	if planted.failed == 0 {
		t.Fatal("planted label mismatch passed every query shape")
	}
}
