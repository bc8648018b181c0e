package harness

import (
	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/data"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
)

// This file defines the shared workloads and platforms. The executed
// networks are scaled-down stand-ins (nn.TinyCNN for LeNet-class nets) so that
// thousands of real training iterations fit in seconds of host time; the
// simulated platforms and, where relevant, the modeled footprints use the
// paper's true dimensions.

// mnistWorkload is the MNIST-regime workload of Figures 6, 8 and Table 3:
// 28×28 single-channel images, 10 classes, TinyCNN stand-in for LeNet.
func mnistWorkload(o Options) (train, test *data.Dataset, def nn.NetDef) {
	spec := data.Spec{Name: "mnist-syn", Channels: 1, Height: 28, Width: 28, Classes: 10}
	train, test = data.Synthetic(data.Config{
		Spec:   spec,
		TrainN: o.scaled(2048),
		TestN:  512,
		Seed:   o.Seed * 31,
		Noise:  1.5,
	})
	train.Normalize()
	test.Normalize()
	return train, test, nn.TinyCNN(nn.Shape{C: 1, H: 28, W: 28}, 10)
}

// cifarWorkload is the CIFAR-regime workload of Figures 12 and 13:
// 3-channel 16×16 images (scaled from 32×32), 10 classes. The noise level
// is set high so training is stochastic-gradient-noise limited — the regime
// where larger effective batches (more partitions, more machines) buy
// faster convergence, as in the paper's CIFAR experiments.
func cifarWorkload(o Options) (train, test *data.Dataset, def nn.NetDef) {
	spec := data.Spec{Name: "cifar-syn", Channels: 3, Height: 16, Width: 16, Classes: 10}
	train, test = data.Synthetic(data.Config{
		Spec:   spec,
		TrainN: o.scaled(2048),
		TestN:  256,
		Seed:   o.Seed * 67,
		Noise:  2.2,
	})
	train.Normalize()
	test.Normalize()
	return train, test, nn.TinyCNN(nn.Shape{C: 3, H: 16, W: 16}, 10)
}

// deepWorkload is a deeper stand-in (8 parameter layers, AlexNet-like
// layer count) for Figure 10, where per-layer communication pays one
// latency per layer.
func deepWorkload(o Options) (train, test *data.Dataset, def nn.NetDef) {
	spec := data.Spec{Name: "mnist-syn-deep", Channels: 1, Height: 28, Width: 28, Classes: 10}
	train, test = data.Synthetic(data.Config{
		Spec:   spec,
		TrainN: o.scaled(2048),
		TestN:  512,
		Seed:   o.Seed * 13,
		Noise:  0.8,
	})
	train.Normalize()
	test.Normalize()
	def = nn.NetDef{
		Name:    "deepcnn",
		In:      nn.Shape{C: 1, H: 28, W: 28},
		Classes: 10,
		Specs: []nn.LayerSpec{
			{Kind: "conv", Filters: 6, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "conv", Filters: 6, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "conv", Filters: 12, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "conv", Filters: 12, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "dense", Units: 48},
			{Kind: "relu"},
			{Kind: "dense", Units: 24},
			{Kind: "relu"},
			{Kind: "dense", Units: 10},
		},
	}
	return train, test, def
}

// knlClusterPlatform models one KNL node per worker on Cori's Aries fabric
// (the platform of Algorithm 4 and Figure 13): parameters ride the
// interconnect, minibatches come from node-local memory. Point-to-point
// stages here use the fabric's p2p α-β profile (8 GB/s class), not the
// saturating large-collective profile hw.Aries models for Table 4 — the
// executed stand-in model's messages are far below that profile's
// saturation regime.
func knlClusterPlatform() core.Platform {
	knl := hw.Device{Name: "KNL 7250", PeakFLOPS: 6e12, Eff: 0.02, MemBytes: 384 << 30, MemBW: 90e9}
	local := hw.Link{Name: "node-local DDR", Alpha: 1e-6, Beta: 1 / 90e9}
	fabric := hw.Link{Name: "Aries p2p", Alpha: 1.5e-6, Beta: 1 / 8e9}
	return core.Platform{
		Worker:    knl,
		Master:    knl,
		HostParam: fabric,
		PeerParam: fabric,
		Data:      local,
		Packed:    true,
	}
}

// gpuPlatform returns the paper's 4-GPU node (see core.DefaultGPUPlatform).
func gpuPlatform(packed bool) core.Platform { return core.DefaultGPUPlatform(packed) }

// baseConfig assembles a core.Config for the MNIST-regime GPU experiments.
func baseConfig(o Options, iters int, packed bool) core.Config {
	train, test, def := mnistWorkload(o)
	return core.Config{
		Def:        def,
		Train:      train,
		Test:       test,
		Workers:    4,
		Batch:      32,
		LR:         0.05,
		Momentum:   0.9,
		Iterations: iters,
		Seed:       o.Seed,
		Platform:   gpuPlatform(packed),
	}
}

// aggregate statistics helpers shared by experiments.

// minFloat returns the minimum of xs (0 for empty).
func minFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// transfererName names a link for table rows.
func transfererName(t comm.Transferer) string {
	switch l := t.(type) {
	case hw.Link:
		return l.Name
	case hw.SaturatingLink:
		return l.Name
	default:
		return "link"
	}
}
