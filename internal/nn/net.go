package nn

import (
	"fmt"

	"scaledl/internal/tensor"
)

// LayerSpec declares one layer of a network definition. Exactly one
// constructor field set applies depending on Kind.
type LayerSpec struct {
	Kind    string  // "conv", "dense", "maxpool", "avgpool", "globalavgpool", "relu", "tanh", "sigmoid", "dropout", "lrn", "parallel"
	Filters int     // conv
	Units   int     // dense
	Kernel  int     // conv/pool
	Stride  int     // conv/pool
	Pad     int     // conv/pool
	P       float64 // dropout probability
	N       int     // lrn window
	// Branches holds the sub-chains of a "parallel" (inception) layer; the
	// branch outputs are concatenated along the channel axis.
	Branches [][]LayerSpec `json:",omitempty"`
}

// NetDef is a reusable network definition: the paper's distributed workers
// each instantiate their own copy of the same definition (data parallelism
// replicates the network per machine, Figure 4.1).
type NetDef struct {
	Name    string
	In      Shape
	Classes int
	Specs   []LayerSpec
}

// Net is an instantiated network. All parameters live in one contiguous
// Params buffer and all gradients in one contiguous Grads buffer, with
// layers holding views — this is the paper's §5.2 single-layer (packed)
// layout: one communication per iteration moves the whole model, and memory
// access is sequential.
type Net struct {
	Def     NetDef
	Layers  []Layer
	Params  []float32
	Grads   []float32
	Offsets []int // Offsets[i] is the start of layer i's parameters; len = len(Layers)+1
	// Quant holds the per-layer int8 weight grids after QuantizeInt8; empty
	// for fp32 nets. Params always hold the values inference runs on —
	// quantized nets store the dequantized grid values there.
	Quant []LayerQuant
	loss  SoftmaxXent
}

// Build instantiates a network from its definition with Xavier-initialized
// weights drawn from the given seed.
func (d NetDef) Build(seed int64) *Net {
	n := d.assemble()
	g := tensor.NewRNG(seed)
	for _, l := range n.Layers {
		l.Init(g)
	}
	return n
}

// Replica instantiates the definition as a copy of an existing parameter
// vector — what every data-parallel worker is: Algorithms 1-4 initialize W
// once and copy it to all. It skips the Xavier fill Build would draw only to
// have it overwritten; seed drives what per-replica randomness remains (the
// mask streams of dropout layers, wherever they nest).
func (d NetDef) Replica(params []float32, seed int64) *Net {
	n := d.assemble()
	if len(params) != len(n.Params) {
		panic(fmt.Sprintf("nn: %s replica of %d parameters, definition has %d", d.Name, len(params), len(n.Params)))
	}
	copy(n.Params, params)
	seedLayers(n.Layers, tensor.NewRNG(seed))
	return n
}

// seeder is implemented by layers that hold a random stream of their own
// besides their parameters; seed draws it from g without touching weights.
type seeder interface {
	seed(g *tensor.RNG)
}

// seedLayers seeds every seeder of a layer chain, in order, from g.
func seedLayers(layers []Layer, g *tensor.RNG) {
	for _, l := range layers {
		if s, ok := l.(seeder); ok {
			s.seed(g)
		}
	}
}

// assemble lays the definition's layers out over freshly allocated (zero)
// packed parameter and gradient buffers, initializing nothing.
func (d NetDef) assemble() *Net {
	layers := make([]Layer, 0, len(d.Specs))
	shape := d.In
	for _, s := range d.Specs {
		l := buildLayer(shape, s)
		layers = append(layers, l)
		shape = l.OutShape()
	}
	if shape.Dim() != d.Classes {
		panic(fmt.Sprintf("nn: %s final shape %v does not match %d classes", d.Name, shape, d.Classes))
	}
	total := 0
	offsets := make([]int, len(layers)+1)
	for i, l := range layers {
		offsets[i] = total
		total += l.ParamCount()
	}
	offsets[len(layers)] = total
	n := &Net{
		Def:     d,
		Layers:  layers,
		Params:  make([]float32, total),
		Grads:   make([]float32, total),
		Offsets: offsets,
	}
	for i, l := range layers {
		l.Bind(n.Params[offsets[i]:offsets[i+1]], n.Grads[offsets[i]:offsets[i+1]])
	}
	return n
}

// buildLayer constructs one layer from its spec at the given input shape.
func buildLayer(shape Shape, s LayerSpec) Layer {
	switch s.Kind {
	case "conv":
		return NewConv2D(shape, s.Filters, s.Kernel, s.Stride, s.Pad)
	case "dense":
		return NewDense(shape, s.Units)
	case "maxpool":
		return NewPool2DPad(shape, MaxPool, s.Kernel, s.Stride, s.Pad)
	case "avgpool":
		return NewPool2DPad(shape, AvgPool, s.Kernel, s.Stride, s.Pad)
	case "globalavgpool":
		k := shape.H
		if shape.W > k {
			k = shape.W
		}
		return NewPool2D(shape, AvgPool, k, k)
	case "relu":
		return NewReLU(shape)
	case "tanh":
		return NewTanh(shape)
	case "sigmoid":
		return NewSigmoid(shape)
	case "dropout":
		return NewDropout(shape, s.P)
	case "lrn":
		return NewLRN(shape, s.N, 0, 0, 0)
	case "parallel":
		branches := make([][]Layer, len(s.Branches))
		for i, b := range s.Branches {
			branches[i] = buildChain(shape, b)
		}
		return NewParallel(shape, branches)
	default:
		panic(fmt.Sprintf("nn: unknown layer kind %q", s.Kind))
	}
}

// ParamCount returns the total number of parameters.
func (n *Net) ParamCount() int { return len(n.Params) }

// ParamBytes returns the float32 byte size of the model, the |W| that the
// α-β communication model charges.
func (n *Net) ParamBytes() int64 { return int64(len(n.Params)) * 4 }

// LayerParamSizes returns the per-layer parameter counts for layers that
// have parameters; this is what the unpacked (per-layer) communication plan
// of Figure 10 sends as separate messages.
func (n *Net) LayerParamSizes() []int {
	var sizes []int
	for i := range n.Layers {
		if c := n.Offsets[i+1] - n.Offsets[i]; c > 0 {
			sizes = append(sizes, c)
		}
	}
	return sizes
}

// ZeroGrad clears the packed gradient buffer.
func (n *Net) ZeroGrad() {
	for i := range n.Grads {
		n.Grads[i] = 0
	}
}

// Forward runs the network on a batch, returning the logits (b × Classes).
func (n *Net) Forward(x []float32, b int, train bool) []float32 {
	cur := x
	for _, l := range n.Layers {
		cur = l.Forward(cur, b, train)
	}
	return cur
}

// GradEvent announces that one layer's parameter gradients are final: the
// backward walk has run the layer's Backward, and — because every layer
// accumulates only into its own disjoint [Lo,Hi) view of the packed Grads
// buffer — Grads[Lo:Hi] will not change again this minibatch. This is the
// per-layer readiness signal wait-free backprop (Poseidon) keys on: the
// communication of a layer's gradient can start the moment its event fires,
// while earlier layers are still computing.
type GradEvent struct {
	Layer  int // index into Net.Layers; events fire in descending order
	Lo, Hi int // the layer's element range within Grads ([Lo,Hi) = Offsets[Layer], Offsets[Layer+1])

	// Sufficient factors, filled for layers implementing FactorLayer (dense
	// layers): zero-copy views of the backward activations whose outer
	// product dYᵀ·X is the layer's weight gradient. DY is B×F, X is B×D; nil
	// for layers without factors. The views alias live net buffers — valid
	// until the net's next forward/backward — so consumers that need them
	// past this iteration must snapshot.
	DY, X   []float32
	B, F, D int
}

// LossAndGradStream computes gradients for one minibatch exactly like
// LossAndGrad, but emits a GradEvent after each layer's Backward — the
// per-layer gradient-ready stream the overlapped (bucketed) communication
// path consumes. Events fire last layer first, covering every layer
// (parameter-free layers emit an empty range). A nil emit streams nowhere,
// which is the monolithic path; the gradients are bit-identical either way
// because the walk is the same code.
func (n *Net) LossAndGradStream(x []float32, labels []int, b int, emit func(GradEvent)) (loss float64, correct int) {
	logits := n.Forward(x, b, true)
	loss, correct = n.loss.Forward(logits, labels, n.Def.Classes)
	dy := n.loss.Grad()
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy, b)
		if emit != nil {
			e := GradEvent{Layer: i, Lo: n.Offsets[i], Hi: n.Offsets[i+1]}
			if fl, ok := n.Layers[i].(FactorLayer); ok {
				e.DY, e.X, e.B, e.F, e.D = fl.BackwardFactors()
			}
			emit(e)
		}
	}
	return loss, correct
}

// LossAndGrad computes gradients for one minibatch: a full forward, softmax
// cross-entropy, and a full backward accumulating into Grads (which the
// caller usually zeroes first). It returns the mean loss and the number of
// correct argmax predictions. It is the monolithic wrapper over
// LossAndGradStream.
func (n *Net) LossAndGrad(x []float32, labels []int, b int) (loss float64, correct int) {
	return n.LossAndGradStream(x, labels, b, nil)
}

// Loss computes the loss of a batch without touching gradients.
func (n *Net) Loss(x []float32, labels []int, b int) (loss float64, correct int) {
	logits := n.Forward(x, b, false)
	var s SoftmaxXent
	return s.Forward(logits, labels, n.Def.Classes)
}

// SGDStep applies W ← W − η·G to the packed parameters.
func (n *Net) SGDStep(lr float32) {
	tensor.AXPY(-lr, n.Grads, n.Params)
}

// CopyParamsFrom overwrites this net's parameters with src's.
func (n *Net) CopyParamsFrom(src *Net) {
	if len(src.Params) != len(n.Params) {
		panic("nn: CopyParamsFrom parameter count mismatch")
	}
	copy(n.Params, src.Params)
}

// FwdFLOPsPerSample sums the per-layer forward FLOP counts.
func (n *Net) FwdFLOPsPerSample() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.FwdFLOPsPerSample()
	}
	return s
}

// TrainFLOPsPerSample estimates forward+backward cost with the standard
// 1:2 fwd:bwd ratio.
func (n *Net) TrainFLOPsPerSample() int64 { return 3 * n.FwdFLOPsPerSample() }

// Cost exposes the network as a ModelCost for the simulator, so real
// networks and cost-table-only networks (VGG, GoogleNet) are interchangeable
// to the hardware model.
func (n *Net) Cost() ModelCost {
	m := ModelCost{Name: n.Def.Name, Classes: n.Def.Classes, InputDim: n.Def.In.Dim()}
	for i, l := range n.Layers {
		m.Layers = append(m.Layers, LayerCost{
			Name:     l.Name(),
			Params:   int64(n.Offsets[i+1] - n.Offsets[i]),
			FwdFLOPs: l.FwdFLOPsPerSample(),
		})
	}
	return m
}

// Evaluate computes classification accuracy over the given samples in
// batches of evalBatch.
func (n *Net) Evaluate(images []float32, labels []int, evalBatch int) float64 {
	dim := n.Def.In.Dim()
	total := len(labels)
	if total == 0 {
		return 0
	}
	correct := 0
	for lo := 0; lo < total; lo += evalBatch {
		hi := lo + evalBatch
		if hi > total {
			hi = total
		}
		b := hi - lo
		logits := n.Forward(images[lo*dim:hi*dim], b, false)
		for i := 0; i < b; i++ {
			row := logits[i*n.Def.Classes : (i+1)*n.Def.Classes]
			if tensor.MaxIndex(row) == labels[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}
