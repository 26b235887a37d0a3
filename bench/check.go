package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// checkOutput verifies that a run's output file names exactly the
// metrics BENCHMARK.json lists for its kind of run (end-to-end, or per
// layer for a traced run), each finite and in the manifest's unit, for a
// workload the manifest lists; that every end-to-end figure is positive;
// that set-up time and the whole-phase timings, which every run carries,
// say how many samples stand behind them; and that the header explains
// the run.
func checkOutput(path, manifestPath string) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var out output
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return out.validate(man)
}

func (o *output) validate(man manifest) error {
	h := o.Header
	if !slices.ContainsFunc(man.Workloads, func(w workloadDef) bool { return w.Name == h.Workload }) {
		return fmt.Errorf("workload %q is not in the manifest", h.Workload)
	}
	switch {
	case h.CPUs < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.Commit == "" || h.Filesystem == "":
		return fmt.Errorf("header does not name cpus, GOMAXPROCS, Go version, commit and filesystem")
	case h.OpsPerClient < 1 || h.MeasuredOps < 1 || h.LogicalClients < 1 || len(h.SetupSeconds) == 0:
		return fmt.Errorf("header does not give the op counts and set-up times")
	case o.Attempted < 1 || o.Failed < 0 || o.Correct != (o.Failed == 0):
		return fmt.Errorf("attempted %d, failed %d, correct %v do not agree", o.Attempted, o.Failed, o.Correct)
	}
	defs := man.EndToEnd
	if h.Trace {
		defs = man.PerLayer
	}
	for name := range o.Metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
			return fmt.Errorf("metric %q is not in the manifest", name)
		}
	}
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %q is missing", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is not finite", d.Name)
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %q has unit %q, the manifest says %q", d.Name, v.Unit, d.Unit)
		case !h.Trace && v.Value <= 0:
			return fmt.Errorf("end-to-end metric %q reads %v", d.Name, v.Value)
		}
	}
	// A traced run lists the timings among its metrics and set-up time
	// among its diagnostics; an end-to-end run the other way round.
	for _, name := range []string{"setup_s", "e2e.ops_per_s", "e2e.op_p50_us", "e2e.op_p95_us", "e2e.cpu_us_per_op"} {
		v, ok := o.Metrics[name]
		if !ok {
			v, ok = o.Diagnostics[name]
		}
		if !ok || v.Value <= 0 || v.Samples < 1 {
			return fmt.Errorf("timing %q is missing, not positive or does not state its sample count", name)
		}
	}
	return nil
}
