package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"scaledl/internal/par"
	"scaledl/internal/tensor"
)

// stepPins holds the loss and an FNV-1a of Params after one LossAndGrad +
// SGDStep, produced at commit 1b4b773 (scalar ReLU and pooling loops, no
// tier-dispatched layer kernels) under GODEBUG=cpu.avx2=off at pool width 2
// (the conv weight-gradient merge order follows the width). They are the
// before side of "the vector ReLU/pool kernels and the pooling geometry
// rewrite changed no value"; regenerating them from a later commit would
// make the test vacuous.
var stepPins = []struct {
	net      string
	batch    int
	lossBits uint64
	params   uint64
}{
	{"lenet", 1, 0x4000279a15e68de5, 0xc8b3536d36ce34d7},
	{"lenet", 2, 0x400392bd49f7d38a, 0x5ddc740261232454},
	{"lenet", 8, 0x40032209b0b7ebee, 0x810bbdb1e3b341f2},
	{"tinycnn", 1, 0x400424fc5c638edf, 0xc619b5ef2d63eeea},
	{"tinycnn", 2, 0x4007dbe24d79aff5, 0xff5c0368ccfa809f},
	{"tinycnn", 8, 0x4004aafbfeee62e6, 0xdc23a6ab377305ab},
}

// TestTrainingStepPinnedBits runs one whole training step per zoo net and
// batch size and compares it bit for bit with the values recorded before the
// non-GEMM layers were tier-dispatched. GEMM is bit-identical only between
// the sse2 and generic tiers, so that is where the pins hold; CI reaches
// both through the GODEBUG cpu.avx2=off and cpu.all=off legs.
func TestTrainingStepPinnedBits(t *testing.T) {
	if tier := tensor.KernelTier(); tier != "sse2" && tier != "generic" {
		t.Skipf("pins were recorded on the unfused-GEMM tiers (sse2/generic); this is %s", tier)
	}
	par.SetWidth(2)
	defer par.SetWidth(0)
	in := Shape{C: 1, H: 28, W: 28}
	for _, pin := range stepPins {
		def := TinyCNN(in, 10)
		if pin.net == "lenet" {
			def = LeNet(in, 10)
		}
		net := def.Build(7)
		x := make([]float32, pin.batch*in.Dim())
		tensor.NewRNG(int64(100+pin.batch)).FillNormal(x, 0, 1)
		labels := make([]int, pin.batch)
		for i := range labels {
			labels[i] = (3 * i) % 10
		}
		net.ZeroGrad()
		loss, _ := net.LossAndGrad(x, labels, pin.batch)
		net.SGDStep(0.05)
		h := fnv.New64a()
		var w [4]byte
		for _, p := range net.Params {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(p))
			h.Write(w[:])
		}
		if got := math.Float64bits(loss); got != pin.lossBits || h.Sum64() != pin.params {
			t.Errorf("{%q, %d, %#x, %#x}, // got; pinned loss %#x params %#x",
				pin.net, pin.batch, got, h.Sum64(), pin.lossBits, pin.params)
		}
	}
}
