package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saphyra/internal/graph"
	"saphyra/internal/params"
)

// sameEstimate fails t unless got and want agree bit for bit on the risks
// and on every sampling statistic.
func sameEstimate(t *testing.T, label string, got, want *Estimate) {
	t.Helper()
	if got.PilotN != want.PilotN || got.Rounds != want.Rounds || got.Samples != want.Samples || got.StoppedEarly != want.StoppedEarly {
		t.Fatalf("%s: pilot %d rounds %d samples %d early %v, want %d %d %d %v", label,
			got.PilotN, got.Rounds, got.Samples, got.StoppedEarly,
			want.PilotN, want.Rounds, want.Samples, want.StoppedEarly)
	}
	for i := range want.Risks {
		if math.Float64bits(got.Risks[i]) != math.Float64bits(want.Risks[i]) {
			t.Fatalf("%s: Risks[%d] = %v, want %v", label, i, got.Risks[i], want.Risks[i])
		}
	}
}

// TestPilotOverlapWorkerBitwise: drawing the pilot beside round 1
// (Workers >= 2) instead of before it (Workers == 1) must not move a bit,
// at a budget below smallBatch (both draws inline on one stream each) and
// above it (both spread over the virtual streams).
func TestPilotOverlapWorkerBitwise(t *testing.T) {
	g := skewedGraph()
	targets := make([]graph.Node, 0, 100)
	for i := 0; i < 100; i++ {
		targets = append(targets, graph.Node((i*389)%g.NumNodes()))
	}
	p := PreprocessBC(g)
	for _, eps := range []float64{0.05, 0.02} {
		var ref *Estimate
		for _, workers := range []int{1, 2, 8} {
			res, err := p.EstimateBC(context.Background(), targets, BCOptions{Epsilon: eps, Delta: 0.01, Seed: 31, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res.Est
				if ref == nil || ref.Samples == 0 {
					t.Fatalf("eps %g: reference run drew no samples; the test exercises nothing", eps)
				}
				continue
			}
			sameEstimate(t, fmt.Sprintf("eps %g workers %d", eps, workers), res.Est, ref)
		}
	}
}

// gatedSpace is a one-hypothesis DirectSpace-like space whose pilot
// samplers block on their first draw until release is closed, while the
// round samplers run free and report when round 1's n0 draws are in: the
// window in which only the pilot is still drawing.
type gatedSpace struct {
	base         int64 // Options.Seed
	n0           int64
	roundDraws   atomic.Int64
	pilotStarted chan struct{}
	roundDone    chan struct{}
	release      chan struct{}
	startOnce    sync.Once
	doneOnce     sync.Once
}

func (s *gatedSpace) NumHypotheses() int { return 1 }
func (s *gatedSpace) VCDim() int         { return 1 }
func (s *gatedSpace) ExactPhase(context.Context) (float64, []float64, error) {
	return 0, make([]float64, 1), nil
}

func (s *gatedSpace) NewSampler(seed int64) Sampler {
	// Round streams sit at base + (v+1)*1_000_003, pilot streams 7_777_777
	// further on, which is not a multiple of the stride.
	if (seed-s.base)%1_000_003 != 0 {
		return SamplerFunc(func() []int32 {
			s.startOnce.Do(func() { close(s.pilotStarted) })
			<-s.release
			return nil
		})
	}
	return SamplerFunc(func() []int32 {
		if s.roundDraws.Add(1) == s.n0 {
			s.doneOnce.Do(func() { close(s.roundDone) })
		}
		return nil
	})
}

// TestCancelWhilePilotRuns: a cancel that lands after round 1 finished,
// while the overlapped pilot is still drawing, must fail the run with a
// *params.CanceledError — and only once the pilot has stopped, leaving no
// goroutine behind.
func TestCancelWhilePilotRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		eps  float64
		n0   int64 // ceil(0.5/eps^2 * ln(1/0.1))
	}{
		{"inline", 0.05, 461},
		{"streams", 0.02, 2879},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			sp := &gatedSpace{
				base: 1, n0: tc.n0,
				pilotStarted: make(chan struct{}),
				roundDone:    make(chan struct{}),
				release:      make(chan struct{}),
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := Run(ctx, sp, Options{Epsilon: tc.eps, Delta: 0.1, Seed: sp.base, Workers: 2})
				errc <- err
			}()
			for _, ch := range []chan struct{}{sp.pilotStarted, sp.roundDone} {
				select {
				case <-ch:
				case err := <-errc:
					t.Fatalf("Run returned %v before the pilot/round-1 window", err)
				case <-time.After(10 * time.Second):
					t.Fatal("pilot and round 1 never reached the window")
				}
			}
			cancel()
			select {
			case err := <-errc:
				t.Fatalf("Run returned %v while the pilot was still drawing", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(sp.release)
			err := <-errc
			var ce *params.CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *params.CanceledError", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestCanceledRunLeavesReusableState: a query canceled mid-sampling hands
// its traversal workspaces back to the shared preprocessing; the next
// queries on it — which take those workspaces and the cached block tables —
// must be bitwise what a fresh PreprocessBC gives, and the free list must
// stay within its GOMAXPROCS cap.
func TestCanceledRunLeavesReusableState(t *testing.T) {
	g := skewedGraph()
	wide := make([]graph.Node, 0, 200)
	for i := 0; i < 200; i++ {
		wide = append(wide, graph.Node((i*191)%g.NumNodes()))
	}
	p := PreprocessBC(g)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	_, err := p.EstimateBC(ctx, wide, BCOptions{Epsilon: 0.002, Delta: 0.01, Seed: 99, Workers: 8})
	if !params.IsCanceled(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if n := len(p.free); n == 0 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("free list holds %d workspaces after the canceled run, want 1..%d", n, runtime.GOMAXPROCS(0))
	}

	targets := wide[50:150]
	opt := BCOptions{Epsilon: 0.02, Delta: 0.01, Seed: 7, Workers: 2}
	want, err := PreprocessBC(g).EstimateBC(context.Background(), targets, opt)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := p.EstimateBC(context.Background(), targets, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimate(t, "reused preprocessing", got.Est, want.Est)
		for i := range want.BC {
			if math.Float64bits(got.BC[i]) != math.Float64bits(want.BC[i]) {
				t.Fatalf("rep %d: BC[%d] = %v, want %v", rep, i, got.BC[i], want.BC[i])
			}
		}
	}
	if n := len(p.free); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("free list holds %d workspaces, cap %d", n, runtime.GOMAXPROCS(0))
	}
}
