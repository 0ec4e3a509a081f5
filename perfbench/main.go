// Command perfbench is the repository's end-to-end benchmark. It drives
// the matching service in-process through service.Submit from one
// closed-loop client over a seeded workload, checks every answer against
// an independent reference matcher, and prints one JSON line of metrics.
//
//	perfbench --workload serve-hot --seed 1 --seconds 20 --trace 0
//	perfbench steady --workload enum-heavy --runs 10 --seed 1
//	perfbench select --workload enum-heavy
//
// See README.md for the workloads, the metrics and the steadiness rules.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "select":
			os.Exit(selectMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "serve-hot", "workload: serve-hot, serve-miss or enum-heavy")
	seed := fs.Int64("seed", 1, "workload seed (held-out seed: 7)")
	seconds := fs.Int("seconds", 20, "minimum length of the timed phase, in seconds; whole passes are run")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	rep, err := w.run(context.Background(), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if rep != nil {
		line, jerr := json.Marshal(rep)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			return 1
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	return 0
}

// selectMain prints the picks of a banded workload (see workload.band).
func selectMain(args []string) int {
	fs := flag.NewFlagSet("perfbench select", flag.ContinueOnError)
	name := fs.String("workload", "enum-heavy", "workload with a band")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && w.band[1] == 0 {
		err = fmt.Errorf("workload %s has no band", w.name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench select:", err)
		return 2
	}
	picks, err := w.selectPicks()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench select:", err)
		return 1
	}
	fmt.Printf("picks: %#v,\n", picks)
	return 0
}

// run executes one benchmark run. A wrong answer returns a report with
// Correct false together with the error naming the query and preset.
func (w workload) run(ctx context.Context, seed int64, d time.Duration, traced bool) (*report, error) {
	began := time.Now()
	step := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s done at %.2fs\n", w.name, what, time.Since(began).Seconds())
	}
	in, err := w.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	step("input generation and reference")
	dir, err := newDataDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := writeDataDir(dir, in.g); err != nil {
		return nil, fmt.Errorf("write data directory: %w", err)
	}
	r, st, err := w.setUp(ctx, dir, in)
	if err != nil {
		return nil, err
	}
	defer r.close()
	step("set-up")

	warm := w.passes(ctx, r.svc, in, 0, nil)
	step("warm-up pass")
	var ms []metric
	attempted, failed := 0, 0
	var wrong error
	if traced {
		var tr *traceReport
		tr, err = w.traced(ctx, r, in, st, d)
		if err != nil {
			return nil, err
		}
		ms, attempted, failed, wrong = tr.metrics, tr.attempted, tr.failed, tr.wrong
	} else {
		p := w.passes(ctx, r.svc, in, d, nil)
		ms, attempted, failed, wrong = endToEnd(st, p), p.attempted, p.failed, p.wrong
	}
	if wrong == nil {
		wrong = warm.wrong
	}
	step("timed phase")
	if wrong == nil {
		wrong = w.verify(ctx, r.svc, in)
		step("verification pass")
	}
	rep := &report{Correct: wrong == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		rep.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	return rep, wrong
}
