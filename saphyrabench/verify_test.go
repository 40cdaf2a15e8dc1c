package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"saphyra"
	"saphyra/internal/datasets"
	"saphyra/internal/loadgen"
	"saphyra/internal/serve"
)

// corrupting relays a serving handler but nudges the first score of every
// 200 rank response by one ulp: a wrong answer that still parses.
type corrupting struct{ h http.Handler }

func (c corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		var rr serve.RankResponse
		if err := json.Unmarshal(body, &rr); err == nil && len(rr.Scores) > 0 {
			rr.Scores[0] = math.Nextafter(rr.Scores[0], 2)
			body, _ = json.Marshal(&rr)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// smallRig serves a small view through handler wrap and returns a rig
// that verifies every response.
func smallRig(t *testing.T, wrap func(http.Handler) http.Handler) (*servingRig, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v.sbcv")
	if err := saphyra.BuildView(datasets.LiveJournal.Build(0.05), nil).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(path, serve.Config{DisablePrecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(hs.Close)
	ver, err := loadgen.NewVerifier(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ver.Close() })
	rig := &servingRig{
		spec: servingSpec{verifyEvery: 1},
		ep:   &endpoint{base: hs.URL, client: newClient(1)},
		ver:  ver,
	}
	return rig, []int64{3, 17, 40, 99, 120, 200, 310, 400}
}

func rankCallFor(targets []int64) *loopRun {
	ev := &loadgen.Event{Kind: loadgen.EventRank, Method: serve.MethodSaPHyRa, Targets: targets, Eps: 0.1, Delta: 0.05, Seed: 9}
	return &loopRun{calls: []call{{ev: ev}}}
}

func TestVerifiedAnswerPasses(t *testing.T) {
	rig, targets := smallRig(t, func(h http.Handler) http.Handler { return h })
	run := rankCallFor(targets)
	rig.ep.do(&run.calls[0], 0, false, true)
	var tl tally
	count(&tl, summarize(run))
	if bc := rig.verify(&tl, run); len(bc) != 1 {
		t.Fatalf("verified betweenness responses = %d, want 1", len(bc))
	}
	if tl.attempted != 1 || tl.failed != 0 || tl.wrong != 0 {
		t.Fatalf("tally %+v, want one clean request", tl)
	}
}

func TestCorruptedResponseCountsAsFailure(t *testing.T) {
	rig, targets := smallRig(t, func(h http.Handler) http.Handler { return corrupting{h} })
	run := rankCallFor(targets)
	rig.ep.do(&run.calls[0], 0, false, true)
	if run.calls[0].out != outOK {
		t.Fatalf("corrupted body should still parse, got outcome %d (%v)", run.calls[0].out, run.calls[0].err)
	}
	var tl tally
	count(&tl, summarize(run))
	if bc := rig.verify(&tl, run); len(bc) != 0 {
		t.Errorf("a corrupted response reached the rho pool")
	}
	if tl.failed != 1 || tl.wrong != 1 {
		t.Fatalf("tally %+v, want the corrupted answer counted as one wrong failure", tl)
	}
}

func TestUnparseableResponseCountsAsFailure(t *testing.T) {
	rig, targets := smallRig(t, func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{"nodes": [1,`)) })
	})
	run := rankCallFor(targets)
	rig.ep.do(&run.calls[0], 0, false, true)
	var tl tally
	count(&tl, summarize(run))
	if run.calls[0].out != outError || tl.failed != 1 {
		t.Fatalf("outcome %d, tally %+v: want an error counted as a failure", run.calls[0].out, tl)
	}
}
