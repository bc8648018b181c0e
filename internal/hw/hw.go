// Package hw models the hardware the paper evaluated on: Tesla K80/M40
// multi-GPU nodes with PCIe switches, Intel Knights Landing (Xeon Phi 7250)
// chips with MCDRAM, and the interconnects of Table 2 (InfiniBand under the
// α-β model) plus Cori's Cray Aries. The models provide *time* for the
// discrete-event simulator: computation is charged as FLOPs over effective
// throughput, transfers as α + bytes·β, and memory-bound phases as bytes
// over the bandwidth of whichever memory level the working set fits in.
//
// None of this hardware exists in this environment; the simulation stands in
// for the paper's testbeds. The paper's
// results are communication-structure results (Θ(log P) vs Θ(P), packed vs
// per-layer messages, data placement, overlap), which are properties of
// these cost models rather than of silicon.
package hw

import "fmt"

// Link is an α-β communication channel: transferring n bytes costs
// α + n·β seconds. β is the reciprocal bandwidth.
type Link struct {
	Name  string
	Alpha float64 // latency, seconds
	Beta  float64 // seconds per byte
}

// Time returns the cost of moving n bytes across the link.
func (l Link) Time(n int64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative transfer size %d", n))
	}
	return l.Alpha + float64(n)*l.Beta
}

// Bandwidth returns the asymptotic bandwidth in bytes/second.
func (l Link) Bandwidth() float64 { return 1 / l.Beta }

// Table 2 of the paper: InfiniBand performance under the α-β model.
var (
	// MellanoxFDR is Mellanox 56 Gb/s FDR InfiniBand (α=0.7µs, β=0.2ns/B).
	MellanoxFDR = Link{Name: "Mellanox 56Gb/s FDR IB", Alpha: 0.7e-6, Beta: 0.2e-9}
	// IntelQDR is Intel 40 Gb/s QDR InfiniBand (α=1.2µs, β=0.3ns/B).
	IntelQDR = Link{Name: "Intel 40Gb/s QDR IB", Alpha: 1.2e-6, Beta: 0.3e-9}
	// Intel10GbE is the Intel 10GbE NetEffect NE020 (α=7.2µs, β=0.9ns/B).
	Intel10GbE = Link{Name: "Intel 10GbE NetEffect NE020", Alpha: 7.2e-6, Beta: 0.9e-9}
)

// Intra-node links of the paper's GPU systems.
var (
	// PCIeUnpinned models per-tensor staged cudaMemcpy through pageable host
	// memory — the transfer mode of the original per-layer EASGD code. Small
	// messages pay the full launch+staging latency and pageable copies reach
	// well under peak PCIe bandwidth.
	PCIeUnpinned = Link{Name: "PCIe gen3 pageable", Alpha: 20e-6, Beta: 1 / 0.8e9}
	// PCIePinned models a single packed pinned-buffer DMA (the §5.2 layout).
	PCIePinned = Link{Name: "PCIe gen3 pinned", Alpha: 10e-6, Beta: 1 / 10e9}
	// GPUPeer models GPU↔GPU peer-to-peer DMA through the 96-lane PCIe
	// switch the M40 nodes have (no host staging at all).
	GPUPeer = Link{Name: "PCIe switch P2P", Alpha: 6e-6, Beta: 1 / 12e9}
	// KNLOnChip models the on-die mesh between NUMA quadrants of one KNL
	// chip (§6.2's partition communication).
	KNLOnChip = Link{Name: "KNL on-chip mesh", Alpha: 0.3e-6, Beta: 1 / 80e9}
)

// SaturatingLink models an interconnect whose effective bandwidth rises with
// message size toward an asymptote (real MPI collectives behave this way:
// rendezvous protocol, pipelining and packetization overheads amortize only
// on large transfers). Effective bandwidth for an n-byte message is
// BWMax · n/(n + HalfSize).
type SaturatingLink struct {
	Name     string
	Alpha    float64
	BWMax    float64 // bytes/second asymptote
	HalfSize float64 // message size at which half of BWMax is reached
}

// Time returns the cost of an n-byte transfer.
func (l SaturatingLink) Time(n int64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative transfer size %d", n))
	}
	if n == 0 {
		return l.Alpha
	}
	bw := l.BWMax * float64(n) / (float64(n) + l.HalfSize)
	return l.Alpha + float64(n)/bw
}

// EffectiveBandwidth reports bytes/second achieved for n-byte messages.
func (l SaturatingLink) EffectiveBandwidth(n int64) float64 {
	return float64(n) / (l.Time(n) - l.Alpha)
}

// Aries is Cori's Cray Aries interconnect as seen by large collective
// operations on a shared dragonfly fabric: per-hop latency 1.5µs and
// effective per-stage bandwidth saturating toward 0.8 GB/s with half-
// saturation at 28 MB messages. These are far below the NIC peak because
// they describe *collective* stages on a busy shared fabric; they are
// calibrated so that the paper's own Table 4 overheads (GoogleNet 92.3% /
// VGG 78.5% weak-scaling efficiency at 2176 cores) are reproduced —
// EXPERIMENTS.md records the calibration.
var Aries = SaturatingLink{Name: "Cray Aries (Cori)", Alpha: 1.5e-6, BWMax: 0.8e9, HalfSize: 28e6}

// Device is a compute device with a throughput cost model. Eff is the
// fraction of peak a real DNN workload achieves on the device (small LeNet
// kernels run far below peak; large GEMMs approach it).
type Device struct {
	Name      string
	PeakFLOPS float64 // single precision peak
	Eff       float64 // achieved fraction of peak for the workload
	MemBytes  int64   // device memory capacity
	MemBW     float64 // device memory bandwidth, bytes/s
}

// ComputeTime returns the time to execute the given FLOPs, floor-bounded by
// streaming bytesTouched from device memory (roofline model).
func (d Device) ComputeTime(flops, bytesTouched int64) float64 {
	t := float64(flops) / (d.PeakFLOPS * d.Eff)
	if d.MemBW > 0 {
		if mt := float64(bytesTouched) / d.MemBW; mt > t {
			t = mt
		}
	}
	return t
}

// Devices from the paper's experimental systems (§10.4).
var (
	// TeslaK80Half is one GK210 half of a K80: 12 GB GDDR5, ~4.4 SP TFLOPS.
	TeslaK80Half = Device{Name: "Tesla K80 (half)", PeakFLOPS: 4.37e12, Eff: 0.35, MemBytes: 12 << 30, MemBW: 240e9}
	// TeslaM40 has 12 GB GDDR5 and ~7 SP TFLOPS.
	TeslaM40 = Device{Name: "Tesla M40", PeakFLOPS: 6.8e12, Eff: 0.35, MemBytes: 12 << 30, MemBW: 288e9}
	// XeonE5 approximates the host CPUs (E5-1680v2/E5-2680v3) for the small
	// amount of master-side update work they do.
	XeonE5 = Device{Name: "Xeon E5", PeakFLOPS: 0.48e12, Eff: 0.5, MemBytes: 256 << 30, MemBW: 60e9}
)

// BatchEfficiency scales a device's DNN efficiency with batch size: BLAS
// kernels on small batches underutilize the device, saturating as batches
// grow (§7.2: "larger batch size makes BLAS functions run more
// efficiently"). Returns a multiplier in (0, 1].
func BatchEfficiency(batch int) float64 {
	if batch <= 0 {
		panic("hw: batch must be positive")
	}
	return float64(batch) / (float64(batch) + 32)
}
