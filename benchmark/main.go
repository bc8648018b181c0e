// Command benchmark is the repository's end-to-end ruler: six workloads
// over the simulated clock, the host clock and the serving path, measured
// from outside through the public functions of internal/{tensor,par,nn,
// data,sim,comm,core,serve} and the scaledl facade. One invocation runs
// one workload in one process:
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 it runs the timed pass, tracing off, and reports the
// end-to-end metrics; with -trace 1 it runs the traced pass and reports
// the per-layer metrics and a Chrome trace file. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}. -all
// runs every workload both ways in child processes; -sets N measures the
// run-to-run spread against the bounds and writes BASELINE.json. See
// README.md for the metric and workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start (cold page cache, first heap growth) does
// not decide it.
const setupRepeats = 5

// runner is a set-up workload.
type runner interface {
	timed(seconds float64) *outcome
	traced(seconds float64, rec *recorder) *outcome
	close()
}

func setupWorkload(name string, seed int64) (runner, error) {
	if spec, ok := trainSpecs[name]; ok {
		return setupTrain(spec, seed)
	}
	if spec, ok := serveSpecs[name]; ok {
		return setupServe(spec, seed)
	}
	if name == "sim_scale_sweep" {
		return setupSweep(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (BENCHMARK.json lists them)")
		seed     = flag.Int64("seed", 1, "the only source of randomness: data, net init, Config.Seed, request bodies, arrival schedule")
		seconds  = flag.Float64("seconds", 10, "length of the measured pass in seconds")
		trace    = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace file of the traced pass (default benchmark/out/trace-WORKLOAD.json)")
		all      = flag.Bool("all", false, "run every workload, timed then traced, each in a child process")
		sets     = flag.Int("sets", 0, "run N sets of ten timed runs per workload, compare spread and medians with the bounds, write benchmark/BASELINE.json")
	)
	flag.Parse()
	switch {
	case *all:
		os.Exit(runAll(*seed, *seconds))
	case *sets > 0:
		os.Exit(runSets(*sets, *seed, *seconds))
	case *workload != "":
		if *traceOut == "" {
			*traceOut = filepath.Join("benchmark", "out", "trace-"+*workload+".json")
		}
		os.Exit(runOne(*workload, *seed, *seconds, *trace != 0, *traceOut))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne runs one workload in this process and prints the result line.
func runOne(name string, seed int64, seconds float64, traced bool, traceOut string) int {
	env := pinEnvironment(name)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("workload %s seed %d seconds %g trace %v env %s\n", name, seed, seconds, traced, envJSON)

	// Set up several times; keep the last one.
	var r runner
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		t := time.Now()
		var err error
		if r, err = setupWorkload(name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer r.close()

	var o *outcome
	specs := endToEnd
	if traced {
		specs = perLayer
		rec := newRecorder()
		o = r.traced(seconds, rec)
		o.set("bench.fail_share", float64(o.failed)/float64(o.attempted), o.attempted)
		o.set("bench.peak_rss_mb", peakRSSMB(), 1)
		if err := rec.writeChrome(traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing the trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans (%d dropped) -> %s\n", len(rec.spans), rec.dropped, traceOut)
	} else {
		o = r.timed(seconds)
		if _, set := o.values["ok_share"]; !set { // serving sets its own, against the latency limit
			o.set("ok_share", float64(o.attempted-o.failed)/float64(o.attempted), o.attempted)
		}
		o.set("setup_s", median(setups), len(setups))
	}

	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v := o.values[m.Name] // a layer the workload leaves idle reports 0
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %g", m.Bound)
		}
		fmt.Printf("  %-30s %16.6g %-7s n=%d%s\n", m.Name, v, m.Unit, o.samples[m.Name], bound)
	}
	for _, n := range o.notes {
		fmt.Println("  note:", n)
	}
	for _, c := range o.checks {
		kind, verdict := "check", "pass"
		if c.recon {
			kind = "recon"
		}
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("  %s %s: %s (%s)\n", kind, verdict, c.name, c.detail)
	}
	for name := range o.values {
		if _, ok := line.Metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %q is not in the registry\n", name)
			return 1
		}
	}
	// detail carries what the result line's fixed schema has no room for.
	detail, _ := json.Marshal(map[string]any{"env": env, "samples": o.samples, "recon_failed": o.reconFailed()})
	fmt.Printf("detail %s\n", detail)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	if o.failed > 0 {
		return 1
	}
	return 0
}

func (o *outcome) reconFailed() int {
	n := 0
	for _, c := range o.checks {
		if c.recon && !c.ok {
			n++
		}
	}
	return n
}
