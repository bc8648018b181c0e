package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// childResult is one child run as the parent reads it back.
type childResult struct {
	line   resultLine
	detail struct {
		Env         environment    `json:"env"`
		Samples     map[string]int `json:"samples"`
		ReconFailed int            `json:"recon_failed"`
	}
	output string
}

// runChild re-executes this binary for one workload, so heap, GC state
// and RSS of one workload never leak into the next.
func runChild(workload string, seed int64, seconds float64, trace int) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res := &childResult{output: out.String()}
	lines := strings.Split(strings.TrimSpace(res.output), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.line); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "detail "); ok {
			_ = json.Unmarshal([]byte(rest), &res.detail) // optional extras
		}
	}
	return res, nil
}

// runAll runs every workload with tracing off, then traced, and prints
// every metric by name with unit, sample count and bound. It exits
// non-zero when any correctness or reconciliation check failed.
func runAll(seed int64, seconds float64) int {
	bad := 0
	for _, trace := range []int{0, 1} {
		for _, w := range workloads {
			res, err := runChild(w.Name, seed, seconds, trace)
			if res != nil {
				fmt.Print(res.output)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				bad++
				continue
			}
			if !res.line.Correct || res.detail.ReconFailed > 0 {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("FAILED: %d run(s) with a failed check\n", bad)
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}

// runsPerSet is how many timed runs, each with another seed, make one set:
// the number the acceptance procedure uses.
const runsPerSet = 10

// baselinePath is where -sets records what it measured.
const baselinePath = "benchmark/BASELINE.json"

// baselineFile is what -sets records: per workload and end-to-end metric
// the median of the agreeing sets and the observed spread, tagged with the
// environment they were measured in.
type baselineFile struct {
	Env       environment                          `json:"env"`
	Seconds   float64                              `json:"seconds"`
	Runs      int                                  `json:"runs_per_set"`
	Sets      int                                  `json:"sets"`
	Workloads map[string]map[string]baselineMetric `json:"workloads"`
}

type baselineMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // worst inter-quartile distance / median over the sets
	Bound  float64   `json:"bound"`
	Sets   []float64 `json:"set_medians"`
}

// runSets measures repeatability the way the acceptance procedure does:
// per workload, `sets` sets of runsPerSet timed runs, each run with another
// seed; per end-to-end metric the spread of a set is the distance between
// the first and third quartile of its values as a share of their median.
// A metric fails when a spread exceeds its bound (set-up time excepted) or
// two sets' medians differ, either way round, by more than the bound.
func runSets(sets int, seed int64, seconds float64) int {
	file := baselineFile{Seconds: seconds, Runs: runsPerSet, Sets: sets, Workloads: map[string]map[string]baselineMetric{}}
	bad := 0
	for _, w := range workloads {
		values := make([]map[string][]float64, sets) // set -> metric -> values
		for s := 0; s < sets; s++ {
			values[s] = map[string][]float64{}
			for r := 0; r < runsPerSet; r++ {
				res, err := runChild(w.Name, seed+int64(s*runsPerSet+r), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.line.Correct {
					fmt.Printf("%s: run %d of set %d failed its checks\n", w.Name, r, s)
					bad++
				}
				file.Env = res.detail.Env
				for name, v := range res.line.Metrics {
					values[s][name] = append(values[s][name], v.Value)
				}
			}
		}
		file.Workloads[w.Name] = map[string]baselineMetric{}
		for _, m := range endToEnd {
			bm := baselineMetric{Unit: m.Unit, Bound: m.Bound}
			verdict := "ok"
			for s := 0; s < sets; s++ {
				_, med, _ := quartiles(values[s][m.Name])
				bm.Sets = append(bm.Sets, med)
				if sp := spread(values[s][m.Name]); sp > bm.Spread {
					bm.Spread = sp
				}
			}
			bm.Median = median(bm.Sets)
			if m.Name != "setup_s" && bm.Spread > m.Bound {
				verdict = "SPREAD > BOUND"
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			for i, a := range bm.Sets {
				for _, b := range bm.Sets[i+1:] {
					if regressed(a, b, m.Better, m.Bound, floor) || regressed(b, a, m.Better, m.Bound, floor) {
						verdict = "SETS DISAGREE"
					}
				}
			}
			if verdict != "ok" {
				bad++
			}
			file.Workloads[w.Name][m.Name] = bm
			fmt.Printf("%-20s %-16s median %12.6g %-5s spread %6.2f%%  bound %4.1f%%  sets %v  %s\n",
				w.Name, m.Name, bm.Median, m.Unit, 100*bm.Spread, 100*m.Bound, bm.Sets, verdict)
		}
	}
	data, _ := json.MarshalIndent(file, "", "  ")
	if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if bad > 0 {
		return 1
	}
	return 0
}
