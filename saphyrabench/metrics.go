package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// decl is one metric the benchmark reports: its name and unit exactly as
// BENCHMARK.json declares them (metrics_test.go pins the two together).
type decl struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them on an untraced run (--trace 0).
var endToEnd = []decl{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"success_rate", "1"},
	{"queries_per_s", "1/s"},
	{"rho_mean", "1"},
	{"max_rps", "1/s"},
}

// perLayer are the layer-attributed metrics of a traced run (--trace 1).
// Timings are means per measured request unless the name says otherwise;
// a layer a workload does not reach reads 0.
var perLayer = []decl{
	{"bicomp.build_ms", "ms"},
	{"bicomp.write_ms", "ms"},
	{"bicomp.open_ms", "ms"},
	{"query.prepare_ms", "ms"},
	{"query.rank_ms", "ms"},
	{"query.self_us", "us"},
	{"core.pilot_us", "us"},
	{"core.round_us", "us"},
	{"core.rounds_per_query", "count"},
	{"core.samples_per_query", "count"},
	{"exactphase.schedule_us", "us"},
	{"exactphase.run_us", "us"},
	{"msbfs.pass_wall_us", "us"},
	{"msbfs.pass_busy_us", "us"},
	{"msbfs.passes_per_query", "count"},
	{"sched.budget_wait_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"serve.cache_us", "us"},
	{"serve.flight_us", "us"},
	{"serve.admission_wait_us", "us"},
	{"serve.compute_us", "us"},
	{"serve.hit_ratio", "1"},
	{"serve.shed_ratio", "1"},
	{"serve.degraded_ratio", "1"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"net.hop_us", "us"},
	{"cluster.router_us", "us"},
	{"cluster.route_us", "us"},
	{"cluster.fill_us", "us"},
	{"cluster.peerfill_ratio", "1"},
	{"latency.p99_ms", "ms"},
	{"generator.late_p99_ms", "ms"},
	{"host.steal_share", "1"},
	{"gc.cycles_per_s", "1/s"},
	{"tracing.overhead_ratio", "1"},
	{"trace.dropped", "count"},
}

// value is one metric as printed: the number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit checks that vals holds exactly the declared metrics, all finite,
// and writes the result line.
func emit(w io.Writer, decls []decl, vals map[string]float64, correct bool, attempted, failed int64) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(decls) {
		var extra []string
		for k := range vals {
			if !declared(decls, k) {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	b, err := json.Marshal(&r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func declared(decls []decl, name string) bool {
	for _, d := range decls {
		if d.Name == name {
			return true
		}
	}
	return false
}
