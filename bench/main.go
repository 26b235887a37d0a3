// Command bench is the repository's benchmark: four fixed-work workloads
// driven through client → wire v2 → server → kernel in one process, the
// end-to-end figures of each taken over its whole measured phase, and a
// traced run that times each layer from outside. README.md documents the
// workloads, metrics and bounds; BENCHMARK.json at the repository root is
// the manifest.
//
//	go run ./bench -workload remote-point -seed 1 -seconds 20 -trace 0
//	go run ./bench                  # every workload, one process each
//	go run ./bench -trace 1         # every workload's traced run
//	go run ./bench -check bench/out/remote-point.json
//	go run ./bench -selfcheck 5     # two interleaved sets of 5 runs each
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	var cfg config
	var trace int
	var check string
	var selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: each in turn, one process per workload)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "length of run the op counts are sized for on the reference sandbox")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for run outputs, span files and scratch databases")
	flag.StringVar(&check, "check", "", "validate a run's output file against BENCHMARK.json and exit")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run two interleaved sets of N runs per workload and compare them with the bounds")
	flag.Parse()
	cfg.trace, cfg.scale = trace != 0, 1

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case cfg.seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case check != "":
		if err = checkOutput(check, "BENCHMARK.json"); err == nil {
			fmt.Printf("%s: names exactly the manifest's metrics, each finite and in its unit\n", check)
		}
	case selfcheck > 0:
		err = selfCheck(cfg, selfcheck)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runOne(context.Background(), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report.
func runOne(ctx context.Context, cfg config) error {
	// The manifest must be where the command is run from: the benchmark
	// only means something from the root of a checkout.
	if _, err := readManifest("BENCHMARK.json"); err != nil {
		return err
	}
	r, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"), r.traced.spans); err != nil {
			return err
		}
	}
	out := r.build()
	return out.print(os.Stdout, cfg.outDir)
}

// childArgs is the command line of one run.
func childArgs(cfg config) []string {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	return []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir}
}

// runAll runs every workload, each in a process of its own (peak RSS is
// per process), passing their reports through.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cfg.workload = w.Name
		cmd := exec.Command(self, childArgs(cfg)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return nil
}
