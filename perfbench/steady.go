package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// summary is one workload's part of what the steadiness command prints
// as its last line: per metric, the median, quartiles, spread and
// max/min ratio over the runs.
type summary struct {
	Workload    string                  `json:"workload"`
	Runs        int                     `json:"runs"`
	FailedShare float64                 `json:"failed_share"`
	Metrics     map[string]metricSpread `json:"metrics"`
}

type metricSpread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	MaxMin float64 `json:"max_min"`
}

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain makes a set of runs, each in its own process, and prints
// the spread of every metric per workload. Run i of every workload uses
// seed+i, and the workloads take turns run by run, so that the runs of
// one workload lie spread over the whole set rather than back to back.
// With --against it also checks this set against an earlier set's
// summary: every end-to-end spread but setup_s within its bound, every
// median within its bound of the earlier one, and the same share of
// failed operations.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	list := fs.String("workload", "serve-hot,serve-miss,enum-heavy", "comma-separated workloads to run in turn")
	runs := fs.Int("runs", 10, "number of runs of each workload")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 20, "--seconds of each run")
	trace := fs.Int("trace", 0, "--trace of each run")
	against := fs.String("against", "", "summary file of an earlier set to compare with")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := strings.Split(*list, ",")
	for _, name := range names {
		if _, err := findWorkload(name); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 2
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	sets := make([]runSet, len(names))
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		for k, name := range names {
			rep, err := runOnce(self, name, s, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s run %d (seed %d): %v\n", name, i, s, err)
				return 1
			}
			sets[k].add(rep)
		}
	}
	var out []summary
	for k, name := range names {
		out = append(out, sets[k].summarize(name))
	}
	ok := true
	if *against != "" {
		ok, err = compareSets(out, *against, *spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 1
		}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs the benchmark once in a child process and returns its
// report, which must be correct.
func runOnce(self, name string, seed int64, seconds, trace int) (report, error) {
	var rep report
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, err
	}
	if !rep.Correct {
		return rep, fmt.Errorf("wrong answers")
	}
	fmt.Fprintf(os.Stderr, "steady: %s seed %d: %s\n", name, seed, last)
	return rep, nil
}

// runSet collects one workload's reports.
type runSet struct {
	values       map[string][]float64
	units        map[string]string
	failedShares []float64
}

func (rs *runSet) add(rep report) {
	if rs.values == nil {
		rs.values, rs.units = map[string][]float64{}, map[string]string{}
	}
	rs.failedShares = append(rs.failedShares, float64(rep.Failed)/float64(rep.Attempted))
	for k, m := range rep.Metrics {
		rs.values[k] = append(rs.values[k], m.Value)
		rs.units[k] = m.Unit
	}
}

// summarize prints the workload's spread table and returns its summary.
func (rs *runSet) summarize(name string) summary {
	out := summary{Workload: name, Runs: len(rs.failedShares), FailedShare: median(rs.failedShares), Metrics: map[string]metricSpread{}}
	keys := make([]string, 0, len(rs.values))
	for k := range rs.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s, %d runs\n", name, out.Runs)
	fmt.Printf("%-32s %-9s %14s %14s %14s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "spread", "max/min")
	for _, k := range keys {
		sp := spreadOf(rs.values[k])
		sp.Unit = rs.units[k]
		out.Metrics[k] = sp
		fmt.Printf("%-32s %-9s %14.6g %14.6g %14.6g %7.2f%% %8.4f\n", k, sp.Unit, sp.Median, sp.Q1, sp.Q3, 100*sp.Spread, sp.MaxMin)
	}
	return out
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	q := [3]float64{}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func spreadOf(xs []float64) metricSpread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, _, q3 := quartiles(s)
	sp := metricSpread{Median: median(s), Q1: q1, Q3: q3}
	if sp.Median != 0 {
		sp.Spread = (q3 - q1) / sp.Median
	}
	if s[0] != 0 {
		sp.MaxMin = s[len(s)-1] / s[0]
	}
	return sp
}

// compareSets checks this set against an earlier set's summaries under
// the bounds of the benchmark definition, workload by workload.
func compareSets(cur []summary, prevPath, specPath string) (bool, error) {
	raw, err := os.ReadFile(prevPath)
	if err != nil {
		return false, err
	}
	raw = bytes.TrimSpace(raw)
	if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
		raw = raw[i+1:]
	}
	var prevs []summary
	if err := json.Unmarshal(raw, &prevs); err != nil {
		return false, fmt.Errorf("%s: %w", prevPath, err)
	}
	specRaw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(specRaw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	ok := true
	for _, c := range cur {
		var p *summary
		for i := range prevs {
			if prevs[i].Workload == c.Workload {
				p = &prevs[i]
			}
		}
		if p == nil {
			fmt.Printf("%s: not in %s\n", c.Workload, prevPath)
			ok = false
			continue
		}
		if !compareSummaries(*p, c, spec) {
			ok = false
		}
	}
	return ok, nil
}

// compareSummaries checks one workload: the same failed share, every
// end-to-end spread within its bound and every median within its bound
// of the earlier median, in either direction. The spread of setup_s is
// not checked: a run sets up for about two seconds, so one slow spell of
// the host can cover all of its rounds, and enum-heavy's set-up, which
// builds its plans with two workers, doubles in such a spell. Its median
// across the runs is still checked.
func compareSummaries(prev, cur summary, spec benchmarkSpec) bool {
	ok := prev.FailedShare == cur.FailedShare
	fmt.Printf("%s: failed share: earlier %g, now %g\n", cur.Workload, prev.FailedShare, cur.FailedShare)
	for _, m := range spec.EndToEnd {
		c, inCur := cur.Metrics[m.Name]
		p, inPrev := prev.Metrics[m.Name]
		if !inCur || !inPrev {
			fmt.Printf("%-24s missing\n", m.Name)
			ok = false
			continue
		}
		worse := (c.Median - p.Median) / p.Median
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if math.Abs(worse) > m.Bound || (m.Name != "setup_s" && c.Spread > m.Bound) {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("%-24s bound %5.1f%%  spread %6.2f%%  median shift (worse +) %+7.2f%%  %s\n",
			m.Name, 100*m.Bound, 100*c.Spread, 100*worse, verdict)
	}
	return ok
}
