package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"saphyra"
	"saphyra/internal/cluster"
	"saphyra/internal/datasets"
	"saphyra/internal/serve"
)

// networkScale sizes the livejournal-sim stand-in every workload serves:
// scale 1 is 9,000 nodes and 50,964 edges.
const networkScale = 1

// replicas is the cluster-miss fleet size.
const replicas = 3

// system is what a workload's set-up produces: the thing it then measures.
type system struct {
	viewPath string
	view     *saphyra.View   // rank-social: the mmapped view
	ranker   *saphyra.Ranker // rank-social
	srv      *serve.Server   // serve-hit, serve-miss
	fleet    *cluster.Fleet  // cluster-miss
}

func (s *system) close() {
	if s.fleet != nil {
		s.fleet.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.view != nil {
		s.view.Close()
	}
}

// setupTimes are one set-up's stages.
type setupTimes struct {
	build, write, open, prepare, server time.Duration
}

func (t setupTimes) total() time.Duration { return t.build + t.write + t.open + t.prepare + t.server }

// kind selects which system a set-up brings up.
type kind int

const (
	kindRanker kind = iota
	kindServer
	kindFleet
)

// setupOnce builds the view, writes it to path, and brings the system up
// on the written file through the public entry points.
func setupOnce(k kind, g *saphyra.Graph, path string) (*system, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	v := saphyra.BuildView(g, nil)
	t.build = time.Since(t0)
	t0 = time.Now()
	if err := v.WriteFile(path); err != nil {
		return nil, t, err
	}
	t.write = time.Since(t0)
	s := &system{viewPath: path}
	var err error
	switch k {
	case kindRanker:
		t0 = time.Now()
		s.view, err = saphyra.OpenView(path)
		t.open = time.Since(t0)
		if err == nil {
			t0 = time.Now()
			s.ranker = s.view.Ranker()
			s.ranker.Prepare(saphyra.Betweenness)
			t.prepare = time.Since(t0)
		}
	case kindServer:
		t0 = time.Now()
		s.srv, err = serve.New(path, serve.Config{})
		t.server = time.Since(t0)
	case kindFleet:
		t0 = time.Now()
		// Without precompute: replicas warming their top-k indexes at once
		// fill from one another in whatever order they race, so the
		// fleet's heap would depend on who won. The warm-up asks for the
		// workload's one top-k query instead.
		s.fleet, err = cluster.StartFleet(path, cluster.FleetConfig{
			Replicas: replicas,
			Serve:    serve.Config{DisablePrecompute: true},
		})
		t.server = time.Since(t0)
	}
	if err != nil {
		s.close()
		return nil, t, err
	}
	return s, t, nil
}

// setup brings the system up reps times and returns the first, the live
// heap it added, and the median of each stage. The heap is read against
// a baseline taken before any setup, so the benchmark's own inputs are
// not counted, and with only the kept system in place, so the remains of
// the discarded ones are not either.
func setup(k kind, g *saphyra.Graph, dir string, reps int) (*system, float64, setupTimes, time.Duration, error) {
	var all []setupTimes
	var sys *system
	base := liveHeapMB()
	var heap float64
	for i := 0; i < reps; i++ {
		path := filepath.Join(dir, fmt.Sprintf("view-%d.sbcv", i))
		s, t, err := setupOnce(k, g, path)
		if err != nil {
			if sys != nil {
				sys.close()
			}
			return nil, 0, setupTimes{}, 0, err
		}
		all = append(all, t)
		if i == 0 {
			sys, heap = s, liveHeapMB()-base
		} else {
			s.close()
			os.Remove(path)
		}
	}
	stage := func(f func(setupTimes) time.Duration) time.Duration {
		xs := make([]float64, len(all))
		for i, t := range all {
			xs[i] = float64(f(t))
		}
		return time.Duration(median(xs))
	}
	med := setupTimes{
		build:   stage(func(t setupTimes) time.Duration { return t.build }),
		write:   stage(func(t setupTimes) time.Duration { return t.write }),
		open:    stage(func(t setupTimes) time.Duration { return t.open }),
		prepare: stage(func(t setupTimes) time.Duration { return t.prepare }),
		server:  stage(func(t setupTimes) time.Duration { return t.server }),
	}
	return sys, heap, med, stage(setupTimes.total), nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// network synthesizes the served graph (fixed; it does not depend on the
// workload seed).
func network() *saphyra.Graph { return datasets.LiveJournal.Build(networkScale) }

// graphDigest hashes the graph's adjacency, naming its ground-truth cache.
func graphDigest(g *saphyra.Graph) string {
	h := sha256.New()
	var b [4]byte
	for u := 0; u < g.NumNodes(); u++ {
		nb := g.Neighbors(saphyra.Node(u))
		binary.LittleEndian.PutUint32(b[:], uint32(len(nb)))
		h.Write(b[:])
		for _, v := range nb {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// groundTruth returns exact betweenness (Brandes, one worker, so the bits
// never depend on scheduling) for every node, cached per graph under
// cacheDir: it costs seconds and is never part of a measurement.
func groundTruth(g *saphyra.Graph, cacheDir string) ([]float64, error) {
	path := filepath.Join(cacheDir, "truth-"+graphDigest(g)[:16]+".f64")
	n := g.NumNodes()
	if b, err := os.ReadFile(path); err == nil && len(b) == 8*n {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out, nil
	}
	truth := saphyra.ExactBC(g, 1)
	b := make([]byte, 8*n)
	for i, x := range truth {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return truth, os.Rename(tmp, path)
}
