package nn

// LayerCost describes one layer's footprint for the simulator: parameter
// count (drives communication volume and memory) and forward FLOPs per
// sample (drives compute time).
type LayerCost struct {
	Name     string
	Params   int64
	FwdFLOPs int64
}

// ModelCost is the cost-table view of a network. Real executed networks
// (LeNet, CIFAR nets) derive it via Net.Cost; ImageNet-scale networks
// (AlexNet, VGG-19, GoogleNet) are defined directly as tables with their
// true published dimensions because training them for real in Go would take
// weeks. The paper itself only reports time (not accuracy) at that scale.
type ModelCost struct {
	Name     string
	Classes  int
	InputDim int
	Layers   []LayerCost
}

// TotalParams sums parameters over all layers.
func (m ModelCost) TotalParams() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.Params
	}
	return s
}

// ParamBytes is the float32 model size in bytes (the |W| of the α-β model).
func (m ModelCost) ParamBytes() int64 { return m.TotalParams() * 4 }

// FwdFLOPsPerSample sums forward FLOPs over all layers.
func (m ModelCost) FwdFLOPsPerSample() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.FwdFLOPs
	}
	return s
}

// TrainFLOPsPerSample estimates forward+backward at the usual 1:2 ratio.
func (m ModelCost) TrainFLOPsPerSample() int64 { return 3 * m.FwdFLOPsPerSample() }

// LayerParamSizes lists per-layer parameter counts for layers that carry
// parameters, in order — the message sizes of an unpacked communication plan.
func (m ModelCost) LayerParamSizes() []int64 {
	var out []int64
	for _, l := range m.Layers {
		if l.Params > 0 {
			out = append(out, l.Params)
		}
	}
	return out
}

// convCost builds the cost entry for a conv layer given input channels,
// output channels, kernel, output spatial size and group count (AlexNet uses
// grouped convolutions; groups divide the per-filter input channels).
func convCost(name string, inC, outC, k, outH, outW, groups int) LayerCost {
	params := int64(outC)*int64(inC/groups)*int64(k)*int64(k) + int64(outC)
	macs := int64(outC) * int64(inC/groups) * int64(k) * int64(k) * int64(outH) * int64(outW)
	return LayerCost{Name: name, Params: params, FwdFLOPs: 2 * macs}
}

// denseCost builds the cost entry for a fully connected layer.
func denseCost(name string, in, out int) LayerCost {
	return LayerCost{
		Name:     name,
		Params:   int64(out)*int64(in) + int64(out),
		FwdFLOPs: 2 * int64(out) * int64(in),
	}
}

// poolCost builds the (parameter-free) cost entry for pooling.
func poolCost(name string, c, outH, outW, k int) LayerCost {
	return LayerCost{Name: name, FwdFLOPs: int64(c) * int64(outH) * int64(outW) * int64(k) * int64(k)}
}
