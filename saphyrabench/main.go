// Command saphyrabench is the repository benchmark: it builds the
// livejournal-sim view, brings the system up through its public entry
// points, drives one named workload for a fixed time, checks every answer,
// and prints its metrics as one JSON line.
//
//	bash saphyrabench/run.sh --workload rank-social --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and then traced, and prints the per-layer
// metrics folded from the spans. See README.md for the workloads and what
// each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// workload is one run's configuration and accumulated figures.
type workload struct {
	seed    int64
	seconds int
	traced  bool
	truth   []float64 // exact betweenness per node (nil when not needed)

	tally  tally
	e2e    map[string]float64
	layers map[string]float64
}

// tally counts requests and the ways they failed.
type tally struct {
	attempted, failed int64
	wrong             int64 // failures that are wrong answers, not refusals
	notes             []string
	invalid           []string // why the measurement itself cannot be trusted
}

func (t *tally) invalidate(format string, args ...any) {
	t.invalid = append(t.invalid, fmt.Sprintf(format, args...))
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// tailCheck warns when the q-quantile of n samples rests on fewer than
// minTailSamples samples beyond it.
func (w *workload) tailCheck(n int, q float64) {
	if float64(n)*(1-q) < minTailSamples {
		fmt.Fprintf(os.Stderr, "saphyrabench: warning: p%g over %d samples has fewer than %d beyond it\n", 100*q, n, minTailSamples)
	}
}

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 7

var workloadNames = []string{"rank-social", "serve-hit", "serve-miss", "cluster-miss"}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "saphyrabench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("saphyrabench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := fs.Int64("seed", 1, "workload seed: fixes every generated input")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "saphyrabench"), "directory for view files and the ground-truth cache")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	var k kind
	spec, serving := servingSpecs[*name]
	switch {
	case *name == "rank-social":
		k = kindRanker
	case serving && spec.fleet:
		k = kindFleet
	case serving:
		k = kindServer
	default:
		return fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames, " | "))
	}
	w := &workload{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		e2e: map[string]float64{}, layers: map[string]float64{},
	}
	for _, d := range perLayer {
		w.layers[d.Name] = 0
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Inputs and ground truth, outside every timed region.
	g := network()
	if k == kindRanker || !w.traced {
		if w.truth, err = groundTruth(g, *workdir); err != nil {
			return fmt.Errorf("ground truth: %w", err)
		}
	}
	sys, heap, st, total, err := setup(k, g, dir, setupReps)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	prov := newProvenance(*name, *seed, *trace, *seconds)
	prov.Nodes, prov.Edges = g.NumNodes(), g.NumEdges()
	if prov.View, err = fileDigest(sys.viewPath); err != nil {
		return err
	}
	g = nil
	w.e2e["setup_s"] = total.Seconds()
	w.e2e["heap_live_mb"] = heap
	w.layers["bicomp.build_ms"] = ms(st.build)
	w.layers["bicomp.write_ms"] = ms(st.write)
	w.layers["bicomp.open_ms"] = ms(st.open)
	w.layers["query.prepare_ms"] = ms(st.prepare)

	if k == kindRanker {
		err = runRank(w, sys)
	} else {
		err = runServing(w, spec, sys)
	}
	if err != nil {
		return err
	}
	t := &w.tally
	w.e2e["success_rate"] = ratio(float64(t.attempted-t.failed), float64(t.attempted))

	pb, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintf(stdout, "%s\n", pb)
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "saphyrabench: failure:", n)
	}
	if len(t.invalid) > 0 {
		// No result line: a measurement the benchmark cannot trust must
		// not be read as one.
		return fmt.Errorf("invalid measurement: %s", strings.Join(t.invalid, "; "))
	}
	correct := t.wrong == 0
	if w.traced {
		return emit(stdout, perLayer, w.layers, correct, t.attempted, t.failed)
	}
	return emit(stdout, endToEnd, w.e2e, correct, t.attempted, t.failed)
}
