package vc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func TestDimFromMaxInner(t *testing.T) {
	cases := []struct {
		pi   int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := DimFromMaxInner(c.pi); got != c.want {
			t.Errorf("DimFromMaxInner(%d) = %d, want %d", c.pi, got, c.want)
		}
	}
}

func TestRiondato(t *testing.T) {
	// complete graph: diameter 1 -> no inner nodes -> dim 0
	if got := Riondato(1); got != 0 {
		t.Errorf("Riondato(1) = %d, want 0", got)
	}
	// path of diameter 9: 8 inner nodes -> floor(log2 8)+1 = 4
	if got := Riondato(9); got != 4 {
		t.Errorf("Riondato(9) = %d, want 4", got)
	}
}

func TestLHop(t *testing.T) {
	// l=1: 2l+1 = 3 -> floor(log2 3)+1 = 2
	if got := LHop(1); got != 2 {
		t.Errorf("LHop(1) = %d, want 2", got)
	}
	if got := LHop(0); got != 1 {
		t.Errorf("LHop(0) = %d, want 1", got)
	}
}

func TestFullNetworkBeatsRiondatoOnTrees(t *testing.T) {
	// Tree: every block is an edge, BD = 1, so the SaPHyRa bound is 0 while
	// the Riondato bound grows with the diameter.
	g := graph.RandomTree(200, 4)
	d := bicomp.Decompose(g)
	full := FullNetwork(d.MaxBlockDiameterUpperBound(10))
	if full != 0 {
		t.Errorf("tree FullNetwork bound = %d, want 0", full)
	}
	diam := graph.Diameter(g)
	if r := Riondato(diam); r <= full {
		t.Errorf("Riondato %d should exceed SaPHyRa %d on trees", r, full)
	}
}

func TestSubsetBoundCappedBySubsetSize(t *testing.T) {
	g := graph.Cycle(64) // one block, diameter 32
	d := bicomp.Decompose(g)
	a := []graph.Node{0, 1}
	if bs := SubsetBound(d, a, 100); bs > 2 {
		t.Errorf("BS bound = %d, want <= |A| = 2", bs)
	}
}

func TestSubsetBoundEmpty(t *testing.T) {
	g := graph.Cycle(8)
	d := bicomp.Decompose(g)
	if bs := SubsetBound(d, nil, 10); bs != 0 {
		t.Errorf("BS(empty) = %d, want 0", bs)
	}
}

// The BS(A) bound must be a true upper bound on the actual maximum number of
// A-nodes that appear as inner nodes of a single intra-block shortest path.
func TestSubsetBoundIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := bicomp.Decompose(g)
		var a []graph.Node
		inA := make(map[graph.Node]bool)
		for len(a) < 3 {
			v := graph.Node(rng.Intn(n))
			if !inA[v] {
				inA[v] = true
				a = append(a, v)
			}
		}
		bound := SubsetBound(d, a, 1000)
		// brute: max over intra-block pairs and their shortest paths
		var actual int64
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			members := d.Blocks[b]
			for _, s := range members {
				for _, u := range members {
					if s == u {
						continue
					}
					for _, p := range testutil.AllShortestPaths(g, s, u) {
						var c int64
						for _, v := range p[1 : len(p)-1] {
							if inA[v] {
								c++
							}
						}
						if c > actual {
							actual = c
						}
					}
				}
			}
		}
		if bound < actual {
			t.Logf("seed %d: bound %d < actual %d", seed, bound, actual)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSubsetNeverExceedsFullNetwork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g := testutil.RandomConnectedGraph(n, rng.Intn(2*n), seed)
		d := bicomp.Decompose(g)
		var a []graph.Node
		for i := 0; i < 4; i++ {
			a = append(a, graph.Node(rng.Intn(n)))
		}
		// BS(A) <= BD - 1 by Lemma 23, so the dims are ordered too. Both
		// sides must use comparable diameter bounds: use exact thresholds.
		sub := Subset(d, a, 1000)
		full := FullNetwork(d.MaxBlockDiameterUpperBound(1000))
		return sub <= full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTableIRow(t *testing.T) {
	g := graph.RoadNetwork(12, 12, 0.3, 5)
	d := bicomp.Decompose(g)
	row := TableI(d, []graph.Node{3, 70, 100}, graph.Diameter(g), 50)
	if row.SaPHyRaSubset > row.SaPHyRaFull && row.SaPHyRaFull > 0 {
		t.Errorf("subset bound %d exceeds full bound %d", row.SaPHyRaSubset, row.SaPHyRaFull)
	}
	if row.SaPHyRaFull > row.RiondatoFull {
		t.Errorf("SaPHyRa full %d exceeds Riondato %d", row.SaPHyRaFull, row.RiondatoFull)
	}
}

// fullBFSSubsetBound is the Lemma 23 bound with the subset diameter taken
// from a full single-source BFS of the graph — the reference the truncated
// subsetDiameterUB must reproduce exactly.
func fullBFSSubsetBound(d *bicomp.Decomposition, a []graph.Node, exactThreshold int) int64 {
	seen := make(map[graph.Node]bool)
	byBlock := make(map[int32][]graph.Node)
	for _, v := range a {
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, b := range d.NodeBlocks[v] {
			byBlock[b] = append(byBlock[b], v)
		}
	}
	var bs int64
	for b, members := range byBlock {
		cand := min(int64(len(members)), int64(d.BlockDiameterUpperBound(b, exactThreshold))-1)
		if cand > 2 && len(members) >= 2 {
			dist := graph.BFSDistances(d.G, members[0], nil)
			var far int32
			for _, t := range members {
				far = max(far, dist[t])
			}
			cand = min(cand, int64(2*far)+1)
		}
		bs = max(bs, cand)
	}
	return bs
}

// TestSubsetBoundMatchesFullBFS: stopping the subset-diameter BFS at the
// last member must not move the bound, on the graph shapes whose blocks
// the bound sees — scale-free, road grid, cliques with pendant paths and
// rings, and trees (all size-2 blocks).
func TestSubsetBoundMatchesFullBFS(t *testing.T) {
	pc := graph.NewBuilder(0)
	const k = 30
	for i := graph.Node(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			pc.AddEdge(i, j)
		}
	}
	next := graph.Node(k)
	for c := graph.Node(0); c < k; c += 6 {
		prev := c // pendant path off clique node c
		for i := 0; i < 8; i++ {
			pc.AddEdge(prev, next)
			prev, next = next, next+1
		}
	}
	ring := next // a 40-cycle through clique node 0
	for i := graph.Node(0); i < 39; i++ {
		pc.AddEdge(ring+i, ring+i+1)
	}
	pc.AddEdge(0, ring)
	pc.AddEdge(ring+39, 0)
	for name, g := range map[string]*graph.Graph{
		"ba":             graph.BarabasiAlbert(1500, 3, 4),
		"road":           graph.RoadNetwork(30, 30, 0.15, 7),
		"pendant-clique": pc.Build(),
		"tree":           graph.RandomTree(500, 3),
	} {
		t.Run(name, func(t *testing.T) {
			d := bicomp.Decompose(g)
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 60; trial++ {
				a := make([]graph.Node, 1+rng.Intn(80))
				for i := range a {
					a[i] = graph.Node(rng.Intn(g.NumNodes()))
				}
				for _, thr := range []int{0, 64} {
					if got, want := SubsetBound(d, a, thr), fullBFSSubsetBound(d, a, thr); got != want {
						t.Fatalf("trial %d thr %d: SubsetBound = %d, full-BFS bound = %d", trial, thr, got, want)
					}
				}
			}
		})
	}
}
