package nn

import (
	"fmt"

	"scaledl/internal/tensor"
)

// Parallel runs several layer chains (branches) on the same input and
// concatenates their outputs along the channel axis — the structure of
// GoogleNet's inception module, which the paper's ImageNet experiments
// train. All branches must preserve the spatial dimensions.
type Parallel struct {
	name     string
	in       Shape
	out      Shape
	branches [][]Layer
	chans    []int // output channels per branch

	outBuf []float32
	dxBuf  []float32
	dyBuf  []float32
	lastB  int
}

// NewParallel builds a parallel layer from per-branch layer chains.
func NewParallel(in Shape, branches [][]Layer) *Parallel {
	if len(branches) == 0 {
		panic("nn: parallel layer needs at least one branch")
	}
	p := &Parallel{name: fmt.Sprintf("parallel-%d", len(branches)), in: in, branches: branches}
	h, w := 0, 0
	for bi, chain := range branches {
		shape := in
		for _, l := range chain {
			shape = l.OutShape()
		}
		if bi == 0 {
			h, w = shape.H, shape.W
		} else if shape.H != h || shape.W != w {
			panic(fmt.Sprintf("nn: parallel branch %d output %v mismatches %dx%d", bi, shape, h, w))
		}
		p.chans = append(p.chans, shape.C)
		p.out.C += shape.C
	}
	p.out.H, p.out.W = h, w
	return p
}

func (p *Parallel) Name() string    { return p.name }
func (p *Parallel) OutShape() Shape { return p.out }

func (p *Parallel) ParamCount() int {
	total := 0
	for _, chain := range p.branches {
		for _, l := range chain {
			total += l.ParamCount()
		}
	}
	return total
}

func (p *Parallel) Bind(params, grads []float32) {
	off := 0
	for _, chain := range p.branches {
		for _, l := range chain {
			n := l.ParamCount()
			l.Bind(params[off:off+n], grads[off:off+n])
			off += n
		}
	}
}

func (p *Parallel) Init(g *tensor.RNG) {
	for _, chain := range p.branches {
		for _, l := range chain {
			l.Init(g)
		}
	}
}

func (p *Parallel) seed(g *tensor.RNG) {
	for _, chain := range p.branches {
		seedLayers(chain, g)
	}
}

func (p *Parallel) Forward(x []float32, b int, train bool) []float32 {
	outDim := p.out.Dim()
	out := buf(&p.outBuf, b*outDim)
	spatial := p.out.H * p.out.W
	chOff := 0
	for bi, chain := range p.branches {
		cur := x
		for _, l := range chain {
			cur = l.Forward(cur, b, train)
		}
		// Concatenate along channels: per sample, branch bi's block starts
		// at channel chOff.
		bc := p.chans[bi]
		for i := 0; i < b; i++ {
			src := cur[i*bc*spatial : (i+1)*bc*spatial]
			dst := out[i*outDim+chOff*spatial : i*outDim+(chOff+bc)*spatial]
			copy(dst, src)
		}
		chOff += bc
	}
	p.lastB = b
	return out
}

func (p *Parallel) Backward(dy []float32, b int) []float32 {
	if p.lastB != b {
		panic("nn: parallel Backward batch mismatch with Forward")
	}
	inDim, outDim := p.in.Dim(), p.out.Dim()
	spatial := p.out.H * p.out.W
	dx := buf(&p.dxBuf, b*inDim)
	for i := range dx {
		dx[i] = 0
	}
	chOff := 0
	for bi, chain := range p.branches {
		bc := p.chans[bi]
		// Slice this branch's channel block out of dy.
		bdy := buf(&p.dyBuf, b*bc*spatial)
		for i := 0; i < b; i++ {
			src := dy[i*outDim+chOff*spatial : i*outDim+(chOff+bc)*spatial]
			copy(bdy[i*bc*spatial:(i+1)*bc*spatial], src)
		}
		cur := bdy
		for li := len(chain) - 1; li >= 0; li-- {
			cur = chain[li].Backward(cur, b)
		}
		tensor.AXPY(1, cur, dx) // branches share the input: gradients add
		chOff += bc
	}
	return dx
}

func (p *Parallel) FwdFLOPsPerSample() int64 {
	var s int64
	for _, chain := range p.branches {
		for _, l := range chain {
			s += l.FwdFLOPsPerSample()
		}
	}
	return s
}

// buildChain constructs a branch from specs starting at the given shape.
func buildChain(in Shape, specs []LayerSpec) []Layer {
	var chain []Layer
	shape := in
	for _, s := range specs {
		l := buildLayer(shape, s)
		chain = append(chain, l)
		shape = l.OutShape()
	}
	return chain
}

// Inception returns the LayerSpec of a GoogleNet inception module with the
// standard four branches: 1×1, 1×1→3×3, 1×1→5×5 and 3×3maxpool→1×1
// projection.
func Inception(c1, r3, c3, r5, c5, pp int) LayerSpec {
	return LayerSpec{
		Kind: "parallel",
		Branches: [][]LayerSpec{
			{{Kind: "conv", Filters: c1, Kernel: 1, Stride: 1}, {Kind: "relu"}},
			{{Kind: "conv", Filters: r3, Kernel: 1, Stride: 1}, {Kind: "relu"},
				{Kind: "conv", Filters: c3, Kernel: 3, Stride: 1, Pad: 1}, {Kind: "relu"}},
			{{Kind: "conv", Filters: r5, Kernel: 1, Stride: 1}, {Kind: "relu"},
				{Kind: "conv", Filters: c5, Kernel: 5, Stride: 1, Pad: 2}, {Kind: "relu"}},
			{{Kind: "maxpool", Kernel: 3, Stride: 1, Pad: 1},
				{Kind: "conv", Filters: pp, Kernel: 1, Stride: 1}, {Kind: "relu"}},
		},
	}
}

// MiniGoogleNet is a small executable inception network: a conv stem, two
// inception modules with a pool between them, global average pooling and a
// classifier. It is the runnable counterpart of the GoogleNetCost table
// (which keeps the full published dimensions for the simulator).
func MiniGoogleNet(in Shape, classes int) NetDef {
	return NetDef{
		Name:    "mini-googlenet",
		In:      in,
		Classes: classes,
		Specs: []LayerSpec{
			{Kind: "conv", Filters: 8, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			Inception(4, 4, 8, 2, 4, 4), // out 20 channels
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			Inception(8, 6, 12, 2, 6, 6), // out 32 channels
			{Kind: "globalavgpool"},
			{Kind: "dense", Units: classes},
		},
	}
}
