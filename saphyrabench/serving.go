package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"saphyra"
	"saphyra/internal/loadgen"
	"saphyra/internal/obs"
	"saphyra/internal/serve"
)

// servingSpec fixes one serving workload.
type servingSpec struct {
	mix func() loadgen.Mix
	// verifyEvery samples every Nth request (by call sequence) for bitwise
	// verification.
	verifyEvery int
	fleet       bool
	// openRate, when set, is the offered rate (req/s) of the open loops a
	// traced run measures; otherwise every phase is a closed loop (see
	// runServing).
	openRate float64
}

var servingSpecs = map[string]servingSpec{
	"serve-hit":    {mix: loadgen.HitDominated, verifyEvery: 131},
	"serve-miss":   {mix: loadgen.MissHeavy, verifyEvery: 11, openRate: 100},
	"cluster-miss": {mix: loadgen.MissHeavy, verifyEvery: 11, openRate: 100, fleet: true},
}

// closedRate sizes a closed loop's schedule: it is built at this rate, far
// above what the system sustains, so a loop of fresh-seed misses never
// comes round to a seed it already sent.
const closedRate = 2000

// lateLimit bounds the generator's p99 lateness in an open-loop phase; a
// phase past it measured the generator, not the program, and makes the run
// invalid.
const lateLimit = 50 * time.Millisecond

// Fresh-seed offsets, one per phase of a run, so that no phase's misses
// are cache hits left by another. A schedule numbers its fresh seeds from
// the class seed up by one per event, so offsets 2^40 apart never meet.
const (
	offMeasured   int64 = 0
	offSaturation int64 = 1 << 40
	offTraced     int64 = 2 << 40
)

// handlerTimer is the benchmark's own span around a serving handler: it
// times each ServeHTTP by the request's sequence number and, when traceAll
// is set, runs the request under a benchmark-owned trace.
type handlerTimer struct {
	h        http.Handler
	on       atomic.Bool
	traceAll bool
	mu       sync.Mutex
	dur      map[int]time.Duration
	traces   map[int]*obs.TraceJSON
}

func (ht *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !ht.on.Load() {
		ht.h.ServeHTTP(w, r)
		return
	}
	seq, _ := strconv.Atoi(r.Header.Get(seqHeader))
	var tr *obs.Trace
	var sp *obs.Span
	if ht.traceAll {
		tr = obs.NewTrace("")
		var ctx context.Context
		ctx, sp = obs.StartSpanIn(r.Context(), tr, "bench.handler")
		r = r.WithContext(ctx)
	}
	t0 := time.Now()
	ht.h.ServeHTTP(w, r)
	d := time.Since(t0)
	var snap *obs.TraceJSON
	if tr != nil {
		sp.End()
		snap = tr.Snapshot()
		tr.Unref()
	}
	ht.mu.Lock()
	ht.dur[seq] = d
	if snap != nil {
		ht.traces[seq] = snap
	}
	ht.mu.Unlock()
}

// get returns what the wrapper recorded for request seq.
func (ht *handlerTimer) get(seq int) (time.Duration, *obs.TraceJSON, bool) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	d, ok := ht.dur[seq]
	return d, ht.traces[seq], ok
}

// record starts a fresh recording, or stops one and keeps what it holds.
func (ht *handlerTimer) record(on bool) {
	if on {
		ht.mu.Lock()
		ht.dur = map[int]time.Duration{}
		ht.traces = map[int]*obs.TraceJSON{}
		ht.mu.Unlock()
	}
	ht.on.Store(on)
}

// hasFreshSeeds reports whether any class of m sends each request with a
// seed of its own.
func hasFreshSeeds(m loadgen.Mix) bool {
	for _, c := range m.Classes {
		if c.FreshSeed {
			return true
		}
	}
	return false
}

// withSeedOffset shifts the query seeds of fresh-seed classes so that a
// later phase's misses are misses again.
func withSeedOffset(m loadgen.Mix, off int64) loadgen.Mix {
	m.Classes = slices.Clone(m.Classes)
	for i := range m.Classes {
		if m.Classes[i].FreshSeed {
			m.Classes[i].Seed += off
		}
	}
	return m
}

// phase is one replayed schedule and its tallies.
type phase struct {
	run                    *loopRun
	ok, degraded, shed     int64
	cached, samples, tried int64
	lateP99                time.Duration
	latMs                  []float64 // open-loop latency; failures are +Inf
}

func summarize(r *loopRun) *phase {
	p := &phase{run: r}
	var late []float64
	for i := range r.calls {
		c := &r.calls[i]
		p.tried++
		late = append(late, float64(c.dispatch-c.due))
		lat := ms(c.latency())
		switch c.out {
		case outOK:
			p.ok++
			if c.cached {
				p.cached++
			} else if c.resp != nil {
				p.samples += c.resp.Samples
			}
		case outDegraded:
			p.degraded++
		case outShed:
			p.shed++
		}
		if c.out != outOK {
			lat = math.Inf(1)
		}
		p.latMs = append(p.latMs, lat)
	}
	p.lateP99 = time.Duration(quantile(late, 0.99))
	return p
}

// quantile is the phase's latency q-quantile (see windowQuantile), ms.
func (p *phase) quantile(q float64) float64 { return windowQuantile(p.latMs, q) }

// describe writes a one-line breakdown of the phase to stderr: where the
// open-loop latency went (generator lateness, waiting for a connection,
// the request itself).
func (p *phase) describe(label string, rate float64) {
	var late, queue, service []float64
	for i := range p.run.calls {
		c := &p.run.calls[i]
		late = append(late, ms(c.dispatch-c.due))
		queue = append(queue, ms(c.sent-c.dispatch))
		service = append(service, ms(c.done-c.sent))
	}
	lat := slices.Clone(p.latMs)
	fmt.Fprintf(os.Stderr, "saphyrabench: %s steal=%.3f rate=%.0f n=%d ok=%d hit=%d shed=%d p50=%.3fms p99=%.3fms window p50/p99=%.3f/%.3fms late99=%.3fms queue50/99=%.3f/%.3fms service50/99=%.3f/%.3fms drain=%v\n",
		label, p.run.steal.share(0, p.run.elapsed), rate, p.tried, p.ok, p.cached, p.shed, quantile(lat, 0.5), quantile(lat, 0.99),
		p.quantile(0.5), p.quantile(0.99), quantile(late, 0.99),
		quantile(queue, 0.5), quantile(queue, 0.99), quantile(service, 0.5), quantile(service, 0.99), p.run.elapsed-p.run.lastDue)
}

// servingRig is a running serving workload: the system behind a loopback
// listener the load generator talks to.
type servingRig struct {
	spec   servingSpec
	sys    *system
	ep     *endpoint
	timer  *handlerTimer
	hs     *http.Server
	served chan error
	ids    []int64
	ver    *loadgen.Verifier
}

func startRig(spec servingSpec, sys *system, conns int) (*servingRig, error) {
	rig := &servingRig{spec: spec, sys: sys}
	var h http.Handler
	if spec.fleet {
		h = sys.fleet.Router().Handler()
	} else {
		h = sys.srv.Handler()
	}
	rig.timer = &handlerTimer{h: h, traceAll: spec.fleet}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.hs = &http.Server{Handler: rig.timer}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.hs.Serve(ln) }()
	rig.ep = &endpoint{base: "http://" + ln.Addr().String(), client: newClient(conns), traceHeader: spec.fleet}
	if rig.ver, err = loadgen.NewVerifier(sys.viewPath); err != nil {
		rig.close()
		return nil, err
	}
	view, err := saphyra.OpenView(sys.viewPath)
	if err != nil {
		rig.close()
		return nil, err
	}
	n := view.Graph().NumNodes()
	if vids := view.IDs(); vids != nil {
		rig.ids = slices.Clone(vids)
	} else {
		rig.ids = make([]int64, n)
		for i := range rig.ids {
			rig.ids[i] = int64(i)
		}
	}
	view.Close()
	return rig, nil
}

// close stops the listener and waits for its serve loop to end.
func (rig *servingRig) close() {
	rig.hs.Close()
	<-rig.served
	rig.ep.client.CloseIdleConnections()
	if rig.ver != nil {
		rig.ver.Close()
	}
}

// warm sends each distinct cacheable query of the schedule once, in order,
// so hot classes measure the steady state.
func (rig *servingRig) warm(s *loadgen.Schedule) error {
	type key struct {
		class int
		seed  int64
	}
	done := map[key]bool{}
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Kind == loadgen.EventReload || s.Mix.Classes[ev.Class].FreshSeed || done[key{ev.Class, ev.Seed}] {
			continue
		}
		done[key{ev.Class, ev.Seed}] = true
		var c call
		for attempt := 0; ; attempt++ {
			c = call{ev: ev}
			rig.ep.do(&c, -1, false, false)
			if c.out != outShed || attempt == 20 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if c.out != outOK {
			return fmt.Errorf("warming %s seed %d: outcome %d: %v", ev.Method, ev.Seed, c.out, c.err)
		}
	}
	return nil
}

// schedule builds the phase's schedule for d, at the open-loop rate when
// open is set and at closedRate otherwise; off keeps its fresh seeds apart
// from every other phase's.
func (rig *servingRig) schedule(seed int64, open bool, d time.Duration, off int64) (*loadgen.Schedule, error) {
	rate := float64(closedRate)
	if open {
		rate = rig.spec.openRate
	}
	m := withSeedOffset(rig.spec.mix(), off).Scale(rate, d)
	// An open loop spaces each class's requests evenly rather than as a
	// Poisson stream: with ~1,000 requests and compute-bound misses, the
	// tail would otherwise follow the luck of the arrival clusters.
	if open {
		for i := range m.Classes {
			m.Classes[i].Arrival = loadgen.Constant
		}
	}
	return loadgen.Build(m, rig.ids, seed)
}

// verify checks the phase's sampled responses bitwise and returns the
// verified betweenness responses in schedule order.
func (rig *servingRig) verify(t *tally, r *loopRun) []*serve.RankResponse {
	var bc []*serve.RankResponse
	for i := range r.calls {
		c := &r.calls[i]
		if c.out != outOK || c.resp == nil || c.seq%rig.spec.verifyEvery != 0 {
			continue
		}
		if err := rig.ver.Check(c.ev.Kind, c.resp); err != nil {
			t.fail(true, "request %d (%s): %v", c.seq, c.ev.Method, err)
			continue
		}
		if c.resp.Method == serve.MethodSaPHyRa && c.ev.Kind == loadgen.EventRank {
			bc = append(bc, c.resp)
		}
	}
	return bc
}

// count adds a phase's requests and refusals to t.
func count(t *tally, p *phase) {
	t.attempted += p.tried
	for i := range p.run.calls {
		c := &p.run.calls[i]
		switch c.out {
		case outOK:
		case outDegraded:
			t.fail(false, "request %d degraded", c.seq)
		case outShed:
			t.fail(false, "request %d shed", c.seq)
		case outDeadline:
			t.fail(false, "request %d missed its deadline", c.seq)
		default:
			t.fail(false, "request %d: %v", c.seq, c.err)
		}
	}
}

// pooledRho is the Spearman rho of every verified betweenness row, pooled
// over distinct responses, against exact betweenness.
func pooledRho(resps []*serve.RankResponse, truth []float64) float64 {
	seen := map[string]bool{}
	var est, tr []float64
	for _, r := range resps {
		k := fmt.Sprint(r.Seed, r.Eps, r.Delta, r.Nodes)
		if seen[k] {
			continue
		}
		seen[k] = true
		for i, id := range r.Nodes {
			est = append(est, r.Scores[i])
			tr = append(tr, truth[id])
		}
	}
	ids := make([]int32, len(est)) // row order breaks ties
	for i := range ids {
		ids[i] = int32(i)
	}
	return saphyra.Spearman(tr, est, ids)
}

// runServing measures serve-hit, serve-miss and cluster-miss.
func runServing(w *workload, spec servingSpec, sys *system) error {
	conns := runtime.NumCPU()
	rig, err := startRig(spec, sys, conns)
	if err != nil {
		return err
	}
	defer rig.close()
	secs := time.Duration(w.seconds) * time.Second
	t := &w.tally

	// An untraced run measures closed loops only. A traced run of a
	// workload with an open-loop rate replays open loops at that rate, so
	// its layer table shows the program under concurrent fixed-rate load.
	open := w.traced && spec.openRate > 0
	measured := secs / 2
	if !w.traced {
		measured = secs * 3 / 5
	}
	s, err := rig.schedule(w.seed, open, measured, offMeasured)
	if err != nil {
		return err
	}
	if err := rig.warm(s); err != nil {
		return err
	}
	peer0 := rig.peerFill()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// closed runs a closed loop over o.conns connections. A loop that used
	// up a fresh-seed schedule would have resent seeds as hits.
	closed := func(label string, s *loadgen.Schedule, d time.Duration, o loopOpts) *phase {
		p := summarize(runClosedLoop(rig.ep, s, d, o))
		p.describe(label, 0)
		if p.run.wrapped && hasFreshSeeds(s.Mix) {
			t.invalidate("%s phase sent more than the %d fresh requests of its schedule", label, len(requests(s)))
		}
		return p
	}
	// run measures one phase: an open-loop replay over nproc connections,
	// or one connection sending back to back.
	run := func(label string, s *loadgen.Schedule, d time.Duration, o loopOpts) *phase {
		rig.timer.record(o.traced)
		defer rig.timer.record(false)
		if !open {
			o.conns = 1
			return closed(label, s, d, o)
		}
		o.conns = conns
		p := summarize(runOpenLoop(rig.ep, s, o))
		p.describe(label, spec.openRate)
		if p.lateP99 > lateLimit {
			t.invalidate("%s phase: generator p99 lateness %v exceeds %v", label, p.lateP99, lateLimit)
		}
		return p
	}
	plain := run("measured", s, measured, loopOpts{verifyEvery: spec.verifyEvery})
	runtime.ReadMemStats(&m1)
	count(t, plain)
	bc := rig.verify(t, plain.run)

	if !w.traced {
		w.tailCheck(len(plain.latMs), 0.95)
		w.e2e["latency_p50_ms"] = plain.quantile(0.50)
		w.e2e["latency_p95_ms"] = plain.quantile(0.95)
		w.e2e["rho_mean"] = pooledRho(bc, w.truth)
		w.e2e["queries_per_s"] = rate(completions(plain.run), plain.run.elapsed)
		// max_rps: nproc connections sending back to back, the rate the
		// server sustains.
		satS, err := rig.schedule(w.seed, false, secs-measured, offSaturation)
		if err != nil {
			return err
		}
		if err := rig.warm(satS); err != nil {
			return err
		}
		sat := closed("saturation", satS, secs-measured, loopOpts{conns: conns})
		count(t, sat)
		w.e2e["max_rps"] = rate(completions(sat.run), sat.run.elapsed)
		return nil
	}

	s2, err := rig.schedule(w.seed, open, secs/2, offTraced)
	if err != nil {
		return err
	}
	traced := run("traced", s2, secs/2, loopOpts{traced: true, verifyEvery: spec.verifyEvery, seqBase: 1 << 30})
	peer1 := rig.peerFill()
	count(t, traced)
	rig.verify(t, traced.run)

	pl := w.layers
	f := newFold()
	rf := newFold()
	var handler, hop, router []float64
	for i := range traced.run.calls {
		c := &traced.run.calls[i]
		if c.resp == nil {
			continue
		}
		f.add(c.resp.Trace)
		seq := (1 << 30) + c.seq
		hd, tr, ok := rig.timer.get(seq)
		if !ok {
			continue
		}
		client := us(c.done - c.sent)
		if spec.fleet {
			rf.add(tr)
			replica := 0.0
			if c.resp.Trace != nil {
				replica = rootDur(c.resp.Trace, "request")
			}
			handler = append(handler, replica)
			router = append(router, us(hd)-replica)
		} else {
			handler = append(handler, us(hd))
		}
		hop = append(hop, client-us(hd))
	}
	computeLayers(pl, f)
	pl["query.rank_ms"] = f.perTrace(f.get("rank").Total) / 1e3
	pl["core.samples_per_query"] = ratio(float64(traced.samples), float64(traced.tried))
	pl["serve.handler_us"] = mean(handler)
	pl["serve.self_us"] = mean(handler) - f.perTrace(f.get("cache").Total)
	pl["serve.cache_us"] = f.perTrace(f.get("cache").Self)
	pl["serve.flight_us"] = f.perTrace(f.get("flight").Self)
	pl["serve.admission_wait_us"] = f.perTrace(f.get("admission").Total)
	pl["serve.compute_us"] = f.perTrace(f.get("compute").Total)
	pl["serve.hit_ratio"] = ratio(float64(plain.cached), float64(plain.ok))
	pl["serve.shed_ratio"] = ratio(float64(plain.shed), float64(plain.tried))
	pl["serve.degraded_ratio"] = ratio(float64(plain.degraded), float64(plain.tried))
	pl["serve.allocs_per_req"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(plain.tried))
	pl["serve.bytes_per_req"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(plain.tried))
	pl["net.hop_us"] = mean(hop)
	if spec.fleet {
		pl["cluster.router_us"] = mean(router)
		pl["cluster.route_us"] = rf.perTrace(rf.get("cluster.route").Total)
		pl["cluster.fill_us"] = f.perTrace(f.get("cluster.fill").Total)
		pl["cluster.peerfill_ratio"] = ratio(peer1.hits-peer0.hits, (peer1.hits-peer0.hits)+(peer1.misses-peer0.misses))
	}
	pl["generator.late_p99_ms"] = ms(plain.lateP99)
	pl["host.steal_share"] = plain.run.steal.share(0, plain.run.elapsed)
	pl["latency.p99_ms"] = plain.quantile(0.99)
	pl["gc.cycles_per_s"] = float64(m1.NumGC-m0.NumGC) / plain.run.elapsed.Seconds()
	pl["tracing.overhead_ratio"] = ratio(median(slices.Clone(traced.latMs)), median(slices.Clone(plain.latMs)))
	pl["trace.dropped"] = float64(f.Dropped + rf.Dropped)
	if d := f.Dropped + rf.Dropped; d > 0 {
		t.invalidate("traces dropped %d spans", d)
	}
	return nil
}

// completions lists when each answered call of a run completed.
func completions(r *loopRun) []time.Duration {
	var done []time.Duration
	for i := range r.calls {
		if r.calls[i].out == outOK {
			done = append(done, r.calls[i].done)
		}
	}
	return done
}

// rootDur is the duration (µs) of the trace's first root span named name.
func rootDur(t *obs.TraceJSON, name string) float64 {
	for _, s := range t.Spans {
		if s.Name == name {
			return s.DurUs
		}
	}
	return 0
}

type peerCounts struct{ hits, misses float64 }

// peerFill sums the replicas' peer-fill counters (zero outside a fleet).
func (rig *servingRig) peerFill() peerCounts {
	var pc peerCounts
	if !rig.spec.fleet {
		return pc
	}
	for i := 0; i < replicas; i++ {
		if srv := rig.sys.fleet.Server(i); srv != nil {
			reg := srv.Registry()
			pc.hits += float64(reg.Counter("saphyra_peer_fill_total", "", `result="hit"`).Value())
			pc.misses += float64(reg.Counter("saphyra_peer_fill_total", "", `result="miss"`).Value())
		}
	}
	return pc
}
