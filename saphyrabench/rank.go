package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"saphyra"
	"saphyra/internal/obs"
)

// The rank-social query contract: the paper's Fig 3/4 setting.
const (
	rankTargets = 100
	rankEps     = 0.05
	rankDelta   = 0.01
	// rhoFloor is the Spearman rho against exact Brandes every query must
	// clear.
	rhoFloor = 0.8
	// rhoPrefix is how many queries of the stream rho_mean covers: a fixed
	// prefix, so the figure repeats exactly for a seed however fast the
	// host is.
	rhoPrefix = 200
)

// rankQuery returns query i of the seeded stream: betweenness on a random
// 100-node subset, with its own sampler seed.
func rankQuery(seed int64, i, n int) saphyra.Query {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	seen := make(map[int]bool, rankTargets)
	targets := make([]saphyra.Node, 0, rankTargets)
	for len(targets) < rankTargets && len(targets) < n {
		v := rng.IntN(n)
		if !seen[v] {
			seen[v] = true
			targets = append(targets, saphyra.Node(v))
		}
	}
	return saphyra.Query{
		Measure: saphyra.Betweenness,
		Targets: targets,
		Epsilon: rankEps,
		Delta:   rankDelta,
		Seed:    rng.Int64N(1<<40) + 1,
	}
}

// rankCall is one answered query.
type rankCall struct {
	i       int
	at      time.Duration // start, from the start of the loop
	latency time.Duration
	res     *saphyra.Result
	err     error
	trace   *obs.TraceJSON
}

// rankLoop is one caller in a closed loop: it ranks queries first, first+1,
// ... until d has passed. With traced set, each call runs under its own
// trace, inside the benchmark's own "bench.rank" span.
func rankLoop(r *saphyra.Ranker, seed int64, n, workers int, d time.Duration, traced bool) ([]rankCall, time.Duration, *stealLog) {
	var out []rankCall
	start := time.Now()
	steal := startStealLog(start)
	for i := 0; time.Since(start) < d; i++ {
		q := rankQuery(seed, i, n)
		q.Workers = workers
		at := time.Since(start)
		c := rankOne(r, q, i, traced)
		c.at = at
		out = append(out, c)
	}
	steal.close()
	return out, time.Since(start), steal
}

func rankOne(r *saphyra.Ranker, q saphyra.Query, i int, traced bool) rankCall {
	ctx := context.Background()
	var tr *obs.Trace
	var sp *obs.Span
	if traced {
		tr = obs.NewTrace("")
		ctx, sp = obs.StartSpanIn(obs.ContextWithTrace(ctx, tr), tr, "bench.rank")
	}
	t0 := time.Now()
	res, err := r.Rank(ctx, q)
	c := rankCall{i: i, latency: time.Since(t0), res: res, err: err}
	if traced {
		sp.End()
		c.trace = tr.Snapshot()
		tr.Unref()
	}
	return c
}

// rankSaturate runs nproc callers at Workers=1 over the same stream for d
// and returns the calls: the concurrent capacity of the Ranker, and (since
// the worker count never reaches the bits) a re-run to compare bitwise.
func rankSaturate(r *saphyra.Ranker, seed int64, n, callers int, d time.Duration) ([]rankCall, time.Duration, *stealLog) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []rankCall
	var wg sync.WaitGroup
	start := time.Now()
	steal := startStealLog(start)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				q := rankQuery(seed, i, n)
				q.Workers = 1
				at := time.Since(start)
				rc := rankOne(r, q, i, false)
				rc.at = at
				mu.Lock()
				out = append(out, rc)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	steal.close()
	slices.SortFunc(out, func(a, b rankCall) int { return a.i - b.i })
	return out, elapsed, steal
}

// done lists when each answered call completed.
func done(calls []rankCall) []time.Duration {
	var out []time.Duration
	for _, c := range calls {
		if c.err == nil {
			out = append(out, c.at+c.latency)
		}
	}
	return out
}

// sameResult reports whether two results agree bit for bit.
func sameResult(a, b *saphyra.Result) error {
	if len(a.Nodes) != len(b.Nodes) || a.Samples != b.Samples {
		return fmt.Errorf("shape or samples differ (%d/%d nodes, %d/%d samples)", len(a.Nodes), len(b.Nodes), a.Samples, b.Samples)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.Rank[i] != b.Rank[i] ||
			math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			return fmt.Errorf("row %d differs (node %d)", i, a.Nodes[i])
		}
	}
	return nil
}

// rho is the Spearman rank correlation of a result against exact
// betweenness, ties broken by node id as in the paper.
func rho(res *saphyra.Result, truth []float64) float64 {
	ids := make([]int32, len(res.Nodes))
	tr := make([]float64, len(res.Nodes))
	for i, v := range res.Nodes {
		ids[i] = int32(v)
		tr[i] = truth[v]
	}
	return saphyra.Spearman(tr, res.Scores, ids)
}

// checkRank counts one phase's calls into t: errors, and answers whose rho
// misses the floor.
func checkRank(t *tally, calls []rankCall, truth []float64) {
	for _, c := range calls {
		t.attempted++
		switch {
		case c.err != nil:
			t.fail(false, "query %d: %v", c.i, c.err)
		case rho(c.res, truth) < rhoFloor:
			t.fail(true, "query %d: rho %.4f below floor %.2f", c.i, rho(c.res, truth), rhoFloor)
		}
	}
}

func latenciesMs(calls []rankCall) []float64 {
	xs := make([]float64, 0, len(calls))
	for _, c := range calls {
		if c.err != nil {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, ms(c.latency))
	}
	return xs
}

// runRank measures rank-social.
func runRank(w *workload, sys *system) error {
	r := sys.ranker
	n := r.NumNodes()
	nproc := runtime.NumCPU()
	workers := min(nproc, runtime.GOMAXPROCS(0))
	secs := time.Duration(w.seconds) * time.Second
	t := &w.tally
	if !w.traced {
		one, el, _ := rankLoop(r, w.seed, n, workers, secs*2/3, false)
		sat, satEl, _ := rankSaturate(r, w.seed, n, nproc, secs/3)
		checkRank(t, one, w.truth)
		checkRank(t, sat, w.truth)
		// Worker independence: every re-run at Workers=1 must equal the
		// single-caller answer bit for bit.
		for _, c := range sat {
			if c.err == nil && c.i < len(one) && one[c.i].err == nil {
				if err := sameResult(one[c.i].res, c.res); err != nil {
					t.fail(true, "query %d: Workers=1 differs from Workers=%d: %v", c.i, workers, err)
				}
			}
		}
		// rho_mean over a fixed prefix; queries the timed loop did not
		// reach are ranked now, outside any measurement.
		var rhos []float64
		for i := 0; i < rhoPrefix; i++ {
			var res *saphyra.Result
			if i < len(one) && one[i].err == nil {
				res = one[i].res
			} else {
				q := rankQuery(w.seed, i, n)
				q.Workers = workers
				var err error
				if res, err = r.Rank(context.Background(), q); err != nil {
					return fmt.Errorf("rho prefix query %d: %w", i, err)
				}
			}
			rhos = append(rhos, rho(res, w.truth))
		}
		w.tailCheck(len(one), 0.95)
		w.e2e["latency_p50_ms"] = windowQuantile(latenciesMs(one), 0.50)
		w.e2e["latency_p95_ms"] = windowQuantile(latenciesMs(one), 0.95)
		w.e2e["queries_per_s"] = rate(done(one), el)
		w.e2e["max_rps"] = rate(done(sat), satEl)
		w.e2e["rho_mean"] = mean(rhos)
		return nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, plainEl, plainSteal := rankLoop(r, w.seed, n, workers, secs/2, false)
	runtime.ReadMemStats(&m1)
	traced, _, _ := rankLoop(r, w.seed, n, workers, secs/2, true)
	checkRank(t, plain, w.truth)
	checkRank(t, traced, w.truth)
	f := newFold()
	var samples int64
	for _, c := range traced {
		f.add(c.trace)
		if c.err == nil {
			samples += c.res.Samples
		}
	}
	pl := w.layers
	pl["query.rank_ms"] = f.perTrace(f.get("bench.rank").Total) / 1e3
	pl["core.samples_per_query"] = ratio(float64(samples), float64(len(traced)))
	computeLayers(pl, f)
	pl["gc.cycles_per_s"] = float64(m1.NumGC-m0.NumGC) / plainEl.Seconds()
	pl["host.steal_share"] = plainSteal.share(0, plainEl)
	pl["latency.p99_ms"] = windowQuantile(latenciesMs(plain), 0.99)
	pl["tracing.overhead_ratio"] = ratio(median(latenciesMs(traced)), median(latenciesMs(plain)))
	pl["trace.dropped"] = float64(f.Dropped)
	if f.Dropped > 0 {
		t.invalidate("traces dropped %d spans", f.Dropped)
	}
	return nil
}

// computeLayers fills the Ranker and engine rows from a fold of traces
// that each cover one request.
func computeLayers(pl map[string]float64, f *fold) {
	pl["query.self_us"] = f.perTrace(f.get("rank").Self)
	pl["core.pilot_us"] = f.perTrace(f.get("core.pilot").Total)
	pl["core.round_us"] = f.perTrace(f.get("core.round").Total)
	pl["core.rounds_per_query"] = f.perTrace(float64(f.get("core.round").Count))
	pl["exactphase.schedule_us"] = f.perTrace(f.get("exact.schedule").Total)
	pl["exactphase.run_us"] = f.perTrace(f.get("exact.run").Total)
	pl["msbfs.pass_wall_us"] = f.perTrace(f.get("msbfs.pass").Wall)
	pl["msbfs.pass_busy_us"] = f.perTrace(f.get("msbfs.pass").Total)
	pl["msbfs.passes_per_query"] = f.perTrace(float64(f.get("msbfs.pass").Count))
	pl["sched.budget_wait_us"] = f.perTrace(f.get("sched.budget.wait").Total)
}
