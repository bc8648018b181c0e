package nn

import (
	"reflect"
	"testing"

	"scaledl/internal/tensor"
)

// A replica is the net Build-then-CopyParamsFrom used to produce: same
// parameters, same layout, same gradients for the same batch.
func TestReplicaMatchesBuiltCopy(t *testing.T) {
	def := LeNet(Shape{C: 1, H: 28, W: 28}, 10)
	src := def.Build(3)
	built := def.Build(99)
	built.CopyParamsFrom(src)
	rep := def.Replica(src.Params, 99)
	if &rep.Params[0] == &src.Params[0] {
		t.Fatal("replica aliases the source parameters")
	}
	if !reflect.DeepEqual(rep.Params, built.Params) || !reflect.DeepEqual(rep.Offsets, built.Offsets) {
		t.Fatal("replica layout or parameters differ from a built copy")
	}
	const b = 4
	x := make([]float32, b*def.In.Dim())
	tensor.NewRNG(5).FillNormal(x, 0, 1)
	labels := []int{1, 7, 0, 3}
	lb, _ := built.LossAndGrad(x, labels, b)
	lr, _ := rep.LossAndGrad(x, labels, b)
	if lb != lr || !reflect.DeepEqual(rep.Grads, built.Grads) {
		t.Errorf("replica loss/gradients differ from a built copy: %v vs %v", lr, lb)
	}
}

// Replica draws no weights but still seeds the layers that own a random
// stream — dropout, also nested inside a parallel block — from its seed:
// same seed, same masks; the net trains without a prior Init.
func TestReplicaSeedsDropout(t *testing.T) {
	in := Shape{C: 2, H: 4, W: 4}
	def := NetDef{Name: "dropnet", In: in, Classes: 3, Specs: []LayerSpec{
		{Kind: "parallel", Branches: [][]LayerSpec{
			{{Kind: "conv", Filters: 2, Kernel: 1, Stride: 1}, {Kind: "dropout", P: 0.5}},
			{{Kind: "conv", Filters: 1, Kernel: 1, Stride: 1}},
		}},
		{Kind: "dropout", P: 0.5},
		{Kind: "dense", Units: 3},
	}}
	src := def.Build(1)
	x := make([]float32, 2*in.Dim())
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	labels := []int{0, 2}
	run := func(seed int64) []float32 {
		n := def.Replica(src.Params, seed)
		n.LossAndGrad(x, labels, 2)
		return n.Grads
	}
	if !reflect.DeepEqual(run(7), run(7)) {
		t.Error("same seed produced different dropout masks")
	}
	if reflect.DeepEqual(run(7), run(8)) {
		t.Error("different seeds produced identical dropout masks")
	}
}
