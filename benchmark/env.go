package main

import (
	"runtime"
	"syscall"
	"time"

	"scaledl/internal/par"
	"scaledl/internal/tensor"
)

// parWidth is the pinned par pool width: deterministic outputs (losses,
// logits) depend on it, so they must not depend on the host's core count.
const parWidth = 2

// environment is what every run records next to its numbers, so medians
// from different kernel tiers or core counts are never compared.
type environment struct {
	KernelTier string `json:"kernel_tier"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ParWidth   int    `json:"par_width"`
	GoVersion  string `json:"go_version"`
}

// pinEnvironment applies the run rules (GOMAXPROCS = min(nproc, 4), par
// width 2) and returns what was set.
func pinEnvironment(workload string) environment {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	// The event kernel runs one simulated process at a time, so the sweep has
	// no use for a second P; with one, how many goroutine hand-offs cross
	// threads is up to the scheduler, and the medians of two sets of ten runs
	// of unchanged code differed by 23-31 % (spread 11-23 %) against 4-9 % on
	// one P, where a repetition is also a quarter faster.
	if workload == "sim_scale_sweep" {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	par.SetWidth(parWidth)
	return environment{
		KernelTier: tensor.KernelTier(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		ParWidth:   par.Width(),
		GoVersion:  runtime.Version(),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20) // bytes there, KB on Linux
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the allocation and GC work between two runtime snapshots.
type memDelta struct {
	Mallocs  float64
	Bytes    float64
	PauseNs  float64
	CPU      time.Duration
	Wall     time.Duration
	startMS  runtime.MemStats
	startCPU time.Duration
	start    time.Time
}

// shareOf returns a function mapping a share of a pass of the given
// length to a duration — how the traced passes split their budget.
func shareOf(seconds float64) func(share float64) time.Duration {
	return func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
}

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.startMS)
	d.startCPU = cpuTime()
	d.start = time.Now()
	return d
}

func (d *memDelta) stop() *memDelta {
	d.Wall = time.Since(d.start)
	d.CPU = cpuTime() - d.startCPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.Mallocs = float64(ms.Mallocs - d.startMS.Mallocs)
	d.Bytes = float64(ms.TotalAlloc - d.startMS.TotalAlloc)
	d.PauseNs = float64(ms.PauseTotalNs - d.startMS.PauseTotalNs)
	return d
}
