package main

import (
	"time"

	"scaledl/internal/nn"
	"scaledl/internal/par"
	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// timeLoop runs fn repeatedly for about budget (at least minIters times)
// and returns the median duration of one call in ns plus the call count.
// Calls are timed in small groups so clock reads do not dominate short fns.
func timeLoop(budget time.Duration, minIters int, fn func()) (medNs float64, calls int) {
	fn() // warm
	group := 1
	for {
		t := time.Now()
		for i := 0; i < group; i++ {
			fn()
		}
		if time.Since(t) > 200*time.Microsecond || group >= 1<<16 {
			break
		}
		group *= 2
	}
	var per []float64
	start := time.Now()
	for time.Since(start) < budget || calls < minIters {
		t := time.Now()
		for i := 0; i < group; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(group))
		calls += group
	}
	return median(per), calls
}

// mallocsPer returns heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	fn()
	m := startMem()
	for i := 0; i < n; i++ {
		fn()
	}
	return m.stop().Mallocs / float64(n)
}

// gemmCall is one GEMM (or im2col) the net issues per training step, on
// the net's own shapes, replayed standalone against internal/tensor.
type gemmCall struct {
	perStep int   // how often one step issues it
	flops   int64 // 2·m·n·k, 0 for im2col/col2im
	run     func()
}

// netKernelCalls lists the tensor-level calls behind one training step of
// def at batch b: per conv layer the im2col/col2im pair and the three
// GEMMs (forward, weight gradient, input gradient) once per sample; per
// dense layer the three GEMMs once per batch — the calls nn's Conv2D and
// Dense make, with the same operand shapes and transpositions.
func netKernelCalls(def nn.NetDef, b int) (gemms, im2cols []gemmCall) {
	g := tensor.NewRNG(7)
	fill := func(n int) []float32 {
		x := make([]float32, n)
		g.FillUniform(x, -1, 1)
		return x
	}
	in := def.In
	net := def.Build(1)
	for i, s := range def.Specs {
		out := net.Layers[i].OutShape()
		switch s.Kind {
		case "conv":
			f, kcc, spatial := s.Filters, in.C*s.Kernel*s.Kernel, out.H*out.W
			w := tensor.Wrap(fill(f*kcc), f, kcc)
			cols := tensor.Wrap(fill(kcc*spatial), kcc, spatial)
			om := tensor.Wrap(fill(f*spatial), f, spatial)
			dw := tensor.Wrap(fill(f*kcc), f, kcc)
			dcols := tensor.Wrap(fill(kcc*spatial), kcc, spatial)
			bias := fill(f)
			x := fill(in.Dim())
			dx := fill(in.Dim())
			fl := 2 * int64(f) * int64(kcc) * int64(spatial)
			c, h, wd, k, st, pd := in.C, in.H, in.W, s.Kernel, s.Stride, s.Pad
			gemms = append(gemms,
				gemmCall{b, fl, func() { tensor.MatMulBiasRow(om, w, cols, bias) }},
				gemmCall{b, fl, func() { tensor.MatMulAdd2TransB(dw, om, cols) }},
				gemmCall{b, fl, func() { tensor.MatMulTransA(dcols, w, om) }})
			im2cols = append(im2cols,
				gemmCall{b, 0, func() { tensor.Im2col(cols.Data, x, c, h, wd, k, k, st, pd) }},
				gemmCall{b, 0, func() { tensor.Col2im(dx, dcols.Data, c, h, wd, k, k, st, pd) }})
		case "dense":
			d, f := in.Dim(), s.Units
			xm := tensor.Wrap(fill(b*d), b, d)
			wm := tensor.Wrap(fill(f*d), f, d)
			om := tensor.Wrap(fill(b*f), b, f)
			dwm := tensor.Wrap(fill(f*d), f, d)
			dxm := tensor.Wrap(fill(b*d), b, d)
			bias := fill(f)
			fl := 2 * int64(b) * int64(d) * int64(f)
			gemms = append(gemms,
				gemmCall{1, fl, func() { tensor.MatMulTransBBiasCol(om, xm, wm, bias) }},
				gemmCall{1, fl, func() { tensor.MatMulAddTransA(dwm, om, xm) }},
				gemmCall{1, fl, func() { tensor.MatMul(dxm, om, wm) }})
		}
		in = out
	}
	return gemms, im2cols
}

// probeTensor times the step's GEMMs and im2cols standalone.
func probeTensor(o *outcome, def nn.NetDef, b int, budget time.Duration) {
	gemms, im2cols := netKernelCalls(def, b)
	per := budget / time.Duration(len(gemms)+len(im2cols)+1)
	var gemmNs, flops, allocs float64
	calls := 0
	for _, c := range gemms {
		ns, n := timeLoop(per, 5, c.run)
		gemmNs += ns * float64(c.perStep)
		flops += float64(c.flops) * float64(c.perStep)
		allocs += mallocsPer(20, c.run) * float64(c.perStep)
		calls += n
	}
	var colNs float64
	colCalls := 0
	for _, c := range im2cols {
		ns, n := timeLoop(per, 5, c.run)
		colNs += ns * float64(c.perStep)
		colCalls += n
	}
	o.set("tensor.gemm_ns_per_step", gemmNs, calls)
	o.set("tensor.gemm_gflops", flops/gemmNs, calls)
	o.set("tensor.gemm_allocs", allocs, 20*len(gemms))
	o.set("tensor.im2col_ns_per_step", colNs, colCalls)
}

// probePar times one empty two-way fan-out on the pinned pool.
func probePar(o *outcome, budget time.Duration) {
	noop := func(int) {}
	ns, n := timeLoop(budget, 100, func() { par.For(2, noop) })
	o.set("par.for_dispatch_ns", ns, n)
	o.set("par.width", float64(par.Width()), 1)
}

// probeSim times the bare event kernel: a 64-process token ring (two
// events per hop, no payload) and the spawn+run+close of 1024 one-delay
// processes — what every simulated collective is built from.
func probeSim(o *outcome, budget time.Duration) {
	const procs, hops = 64, 40_000
	var rates []float64
	start := time.Now()
	for time.Since(start) < budget/2 || len(rates) < 3 {
		env := sim.NewEnv()
		qs := make([]*sim.Queue, procs)
		for i := range qs {
			qs[i] = sim.NewQueue(env, "q")
		}
		for i := 0; i < procs; i++ {
			i := i
			env.Spawn("p", func(p *sim.Proc) {
				for {
					n := p.Recv(qs[i]).(int)
					if n <= 0 {
						if n == 0 {
							qs[(i+1)%procs].Send(-1)
						}
						return
					}
					p.Delay(1e-6)
					qs[(i+1)%procs].Send(n - 1)
				}
			})
		}
		t := time.Now()
		qs[0].Send(hops)
		env.Run()
		d := time.Since(t)
		events := env.Events()
		env.Close()
		rates = append(rates, float64(events)/d.Seconds())
	}
	o.set("sim.pingpong_events_per_s", median(rates), len(rates))

	us, n := timeLoop(budget/2, 3, func() {
		env := sim.NewEnv()
		for i := 0; i < 1024; i++ {
			env.Spawn("p", func(p *sim.Proc) { p.Delay(1e-6) })
		}
		env.Run()
		env.Close()
	})
	o.set("sim.spawn_close_us_p1024", us/1e3, n)
}
