package main

import (
	"fmt"
	"time"

	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
	"scaledl/internal/sim"
)

// inFlightBuckets is core's bound on concurrently running bucket
// collectives per worker (core/stream.go keeps it unexported).
const inFlightBuckets = 2

// psWeights is a worker's upload to the parameter-server master.
type psWeights struct {
	from int
	w    []float32
}

// forkBuckets launches one forked process per bucket, at most
// inFlightBuckets running at once, and waits for all of them — the shape
// of core's streaming pipeline, rebuilt from sim's public primitives.
func forkBuckets(p *sim.Proc, name string, buckets []comm.Bucket, body func(bp *sim.Proc, b int, bk comm.Bucket)) {
	env := p.Env()
	slots := sim.NewResource(env, name+".slots", inFlightBuckets)
	comps := make([]*sim.Completion, len(buckets))
	for b, bk := range buckets {
		b, bk := b, bk
		comps[b] = env.Fork(fmt.Sprintf("%s.%d", name, b), func(bp *sim.Proc) {
			bp.Acquire(slots)
			body(bp, b, bk)
			slots.Release()
		})
	}
	for _, c := range comps {
		c.Wait(p)
	}
}

// exchange builds one iteration's parameter exchange of a training
// workload — with real payloads, on the topology and message plan the
// method uses — in env, and returns the topology (for bytes moved) and how
// many of the workload's iterations the exchange stands for.
func (r *trainRun) exchange(env *sim.Env, net *nn.Net) (*comm.Topology, float64) {
	plan := netPlan(net)
	n := net.ParamCount()
	P := r.workers()
	bufs := make([][]float32, P)
	for i := range bufs {
		bufs[i] = append([]float32(nil), net.Params...)
	}
	pcie := func(env *sim.Env, gpus int, staged bool) *comm.Topology {
		return comm.NewPCIeTree(env, comm.PCIeConfig{GPUs: gpus, Host: hw.PCIePinned, Peer: hw.GPUPeer, HostStaged: staged})
	}
	switch r.spec.method {
	case "sync-easgd3":
		// Bucketed broadcast of the center, then a tree reduce of the
		// local weights to rank 0, over peer DMA.
		topo := pcie(env, P, false)
		cm := comm.NewCommunicator(topo, comm.CommConfig{Parties: comm.Ranks(P), Plan: plan})
		buckets := comm.NewBucketizer(plan, core.DefaultBucketBytes).Buckets()
		sums := make([][]float32, P)
		for i := range sums {
			sums[i] = make([]float32, n)
		}
		for i := 0; i < P; i++ {
			i := i
			ep := cm.Endpoint(i)
			env.Spawn(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
				forkBuckets(p, fmt.Sprintf("bcast%d", i), buckets, func(bp *sim.Proc, b int, bk comm.Bucket) {
					ep.BroadcastRange(bp, b, 0, bufs[i], bk.Lo, bk.Hi)
				})
				copy(sums[i], bufs[i])
				ep.Reduce(p, len(buckets), 0, sums[i])
			})
		}
		return topo, 1
	case "async-easgd":
		// One parameter-server round trip per worker: weights up the host
		// link, the center back down. Each is one master iteration.
		topo := pcie(env, P, false)
		master := topo.Host()
		center := append([]float32(nil), net.Params...)
		wire := int64(n) * 4
		env.Spawn("master", func(p *sim.Proc) {
			for served := 0; served < P; served++ {
				req := topo.RecvAny(p, master).Payload.(psWeights)
				for k, w := range req.w { // Equation (2) for one arrival
					center[k] += 0.1 * (w - center[k])
				}
				reply := append([]float32(nil), center...)
				topo.SendModel(p, master, req.from, 2, reply, plan, wire)
			}
		})
		for i := 0; i < P; i++ {
			i := i
			env.Spawn(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
				snap := append([]float32(nil), bufs[i]...)
				topo.SendModel(p, i, master, 1, psWeights{i, snap}, plan, wire)
				copy(bufs[i], topo.Recv(p, i, master, 2).([]float32))
			})
		}
		return topo, float64(P)
	case "hier-sync-sgd":
		// Bucketed two-level allreduce of the gradient: host-staged PCIe
		// trees under FDR InfiniBand, one full-duplex port per node.
		ml := comm.NewMultiLevel(env, comm.MultiLevelConfig{
			Nodes:          r.spec.nodes,
			PerNode:        func(env *sim.Env, node int) *comm.Topology { return pcie(env, r.spec.gpus, true) },
			Fabric:         hw.MellanoxFDR,
			NICConcurrency: 2,
		})
		locals := comm.Ranks(r.spec.gpus)
		hc := comm.NewHierCommunicator(ml.Topology(), comm.HierConfig{Groups: ml.Groups(locals...), Plan: plan})
		buckets := comm.NewBucketizer(plan, r.spec.bucketBytes).Buckets()
		for i := 0; i < P; i++ {
			i := i
			ep := hc.Endpoint(i)
			env.Spawn(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
				// The backward emits the last layer first, so the last
				// bucket is ready first.
				rev := make([]comm.Bucket, len(buckets))
				for b, bk := range buckets {
					rev[len(buckets)-1-b] = bk
				}
				forkBuckets(p, fmt.Sprintf("ar%d", i), rev, func(bp *sim.Proc, b int, bk comm.Bucket) {
					ep.AllReduceRange(bp, bk.ID, bufs[i], bk.Lo, bk.Hi)
				})
			})
		}
		return ml.Topology(), 1
	}
	panic("benchmark: no exchange for method " + r.spec.method)
}

// probeComm replays the workload's parameter exchange in benchmark-owned
// simulations and reports both clocks of it; it returns the exchange's
// host CPU per workload iteration in ms.
func (r *trainRun) probeComm(o *outcome, rec *recorder, net *nn.Net, budget time.Duration) float64 {
	var hostUs, events, simMs, mbps []float64
	var itersPerOp float64
	m := startMem()
	ops := 0
	for start := time.Now(); time.Since(start) < budget || ops < 3; ops++ {
		sp := rec.begin("comm.exchange", -1, ops)
		t := time.Now()
		env := sim.NewEnv()
		topo, share := r.exchange(env, net)
		end := env.Run()
		ev := env.Events()
		env.Close()
		d := time.Since(t)
		rec.end(sp)
		itersPerOp = share
		hostUs = append(hostUs, float64(d)/1e3)
		events = append(events, float64(ev))
		simMs = append(simMs, end*1e3)
		mbps = append(mbps, float64(topo.BytesMoved())/1e6/d.Seconds())
	}
	m.stop()
	plan := netPlan(net)
	buckets := 0
	switch r.spec.method {
	case "sync-easgd3":
		buckets = comm.NewBucketizer(plan, core.DefaultBucketBytes).NumBuckets()
	case "hier-sync-sgd":
		buckets = comm.NewBucketizer(plan, r.spec.bucketBytes).NumBuckets()
	}
	med := median(hostUs)
	o.set("comm.allreduce_host_us", med/itersPerOp, ops)
	o.set("comm.allreduce_allocs", m.Mallocs/float64(ops)/itersPerOp, ops)
	o.set("comm.payload_mb_per_s", median(mbps), ops)
	o.set("comm.allreduce_sim_ms", median(simMs)/itersPerOp, ops)
	o.set("comm.buckets_per_iter", float64(buckets), 1)
	o.set("sim.events_per_op", median(events), ops)
	o.set("sim.host_ns_per_event", med*1e3/median(events), ops)
	same := true
	for i := range events {
		same = same && events[i] == events[0] && simMs[i] == simMs[0]
	}
	o.verify("exchange replays identically (events, simulated time)", same, "%d replays", ops)
	return float64(m.CPU) / 1e6 / float64(ops) / itersPerOp
}
