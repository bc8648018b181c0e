package nn

import "fmt"

// This file is the model zoo. LeNet and the CIFAR networks are fully
// executable (real forward/backward); AlexNet, VGG-19 and GoogleNet are
// defined as exact-dimension cost tables used by the simulator, with
// parameter counts matching the published architectures (AlexNet ≈ 61.0M
// params ≈ 244 MB and VGG-19 ≈ 143.7M ≈ 575 MB — the sizes the paper quotes
// as "249 MB" and "575 MB"; GoogleNet ≈ 7.0M ≈ 27 MB).

// LeNet returns the classic Caffe LeNet definition used by the paper for
// MNIST: conv20-5, pool2, conv50-5, pool2, fc500, relu, fc10 (431,080
// parameters).
func LeNet(in Shape, classes int) NetDef {
	return NetDef{
		Name:    "lenet",
		In:      in,
		Classes: classes,
		Specs: []LayerSpec{
			{Kind: "conv", Filters: 20, Kernel: 5, Stride: 1, Pad: 0},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "conv", Filters: 50, Kernel: 5, Stride: 1, Pad: 0},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "dense", Units: 500},
			{Kind: "relu"},
			{Kind: "dense", Units: classes},
		},
	}
}

// TinyCNN returns a small convnet that adapts to any input shape:
// conv8-3/p1, relu, pool2, conv16-3/p1, relu, pool2, fc-classes. It is the
// scaled-down stand-in used when experiments need thousands of real training
// iterations in seconds of wall clock (the accuracy-versus-time figures).
func TinyCNN(in Shape, classes int) NetDef {
	return NetDef{
		Name:    "tinycnn",
		In:      in,
		Classes: classes,
		Specs: []LayerSpec{
			{Kind: "conv", Filters: 8, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "conv", Filters: 16, Kernel: 3, Stride: 1, Pad: 1},
			{Kind: "relu"},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "dense", Units: classes},
		},
	}
}

// CIFARQuick returns the Caffe cifar10_quick-style network the paper's KNL
// CIFAR runs build on: three 5×5 conv stages with pooling, then fc64, fc10.
func CIFARQuick(in Shape, classes int) NetDef {
	return NetDef{
		Name:    "cifar-quick",
		In:      in,
		Classes: classes,
		Specs: []LayerSpec{
			{Kind: "conv", Filters: 32, Kernel: 5, Stride: 1, Pad: 2},
			{Kind: "maxpool", Kernel: 3, Stride: 2},
			{Kind: "relu"},
			{Kind: "conv", Filters: 32, Kernel: 5, Stride: 1, Pad: 2},
			{Kind: "relu"},
			{Kind: "avgpool", Kernel: 3, Stride: 2},
			{Kind: "conv", Filters: 64, Kernel: 5, Stride: 1, Pad: 2},
			{Kind: "relu"},
			{Kind: "avgpool", Kernel: 3, Stride: 2},
			{Kind: "dense", Units: 64},
			{Kind: "dense", Units: classes},
		},
	}
}

// AlexNetCost returns the cost table of BVLC AlexNet for 227×227 ImageNet
// input, with the original grouped convolutions. 60,965,224 parameters.
func AlexNetCost() ModelCost {
	return ModelCost{
		Name:     "alexnet",
		Classes:  1000,
		InputDim: 3 * 227 * 227,
		Layers: []LayerCost{
			convCost("conv1-96x11/4", 3, 96, 11, 55, 55, 1),
			{Name: "lrn1", FwdFLOPs: 96 * 55 * 55 * 14},
			poolCost("pool1-3/2", 96, 27, 27, 3),
			convCost("conv2-256x5g2", 96, 256, 5, 27, 27, 2),
			{Name: "lrn2", FwdFLOPs: 256 * 27 * 27 * 14},
			poolCost("pool2-3/2", 256, 13, 13, 3),
			convCost("conv3-384x3", 256, 384, 3, 13, 13, 1),
			convCost("conv4-384x3g2", 384, 384, 3, 13, 13, 2),
			convCost("conv5-256x3g2", 384, 256, 3, 13, 13, 2),
			poolCost("pool5-3/2", 256, 6, 6, 3),
			denseCost("fc6", 256*6*6, 4096),
			denseCost("fc7", 4096, 4096),
			denseCost("fc8", 4096, 1000),
		},
	}
}

// VGG19Cost returns the cost table of VGG-19 (configuration E) for 224×224
// input: 143,667,240 parameters ≈ 575 MB float32, the paper's headline
// "large DNN model".
func VGG19Cost() ModelCost {
	m := ModelCost{Name: "vgg19", Classes: 1000, InputDim: 3 * 224 * 224}
	type stage struct {
		convs, channels, spatial int
	}
	in := 3
	spatialIn := 224
	for si, st := range []stage{{2, 64, 224}, {2, 128, 112}, {4, 256, 56}, {4, 512, 28}, {4, 512, 14}} {
		for c := 0; c < st.convs; c++ {
			m.Layers = append(m.Layers, convCost(
				fmt.Sprintf("conv%d_%d-%dx3", si+1, c+1, st.channels),
				in, st.channels, 3, st.spatial, st.spatial, 1))
			in = st.channels
		}
		m.Layers = append(m.Layers, poolCost(fmt.Sprintf("pool%d", si+1), st.channels, st.spatial/2, st.spatial/2, 2))
		spatialIn = st.spatial / 2
	}
	m.Layers = append(m.Layers,
		denseCost("fc6", 512*spatialIn*spatialIn, 4096),
		denseCost("fc7", 4096, 4096),
		denseCost("fc8", 4096, 1000),
	)
	return m
}

// inceptionCost emits the cost entries of one GoogleNet inception module.
func inceptionCost(name string, in, c1, r3, c3, r5, c5, pp, spatial int) []LayerCost {
	return []LayerCost{
		convCost(name+"-1x1", in, c1, 1, spatial, spatial, 1),
		convCost(name+"-3x3r", in, r3, 1, spatial, spatial, 1),
		convCost(name+"-3x3", r3, c3, 3, spatial, spatial, 1),
		convCost(name+"-5x5r", in, r5, 1, spatial, spatial, 1),
		convCost(name+"-5x5", r5, c5, 5, spatial, spatial, 1),
		poolCost(name+"-pool", in, spatial, spatial, 3),
		convCost(name+"-poolproj", in, pp, 1, spatial, spatial, 1),
	}
}

// GoogleNetCost returns the cost table of GoogleNet (Inception v1, 22
// layers) for 224×224 input: ≈ 7.0M parameters ≈ 27 MB float32. Auxiliary
// classifier heads are excluded, as in deploy-time Caffe models.
func GoogleNetCost() ModelCost {
	m := ModelCost{Name: "googlenet", Classes: 1000, InputDim: 3 * 224 * 224}
	m.Layers = append(m.Layers,
		convCost("conv1-64x7/2", 3, 64, 7, 112, 112, 1),
		poolCost("pool1-3/2", 64, 56, 56, 3),
		convCost("conv2r-64x1", 64, 64, 1, 56, 56, 1),
		convCost("conv2-192x3", 64, 192, 3, 56, 56, 1),
		poolCost("pool2-3/2", 192, 28, 28, 3),
	)
	m.Layers = append(m.Layers, inceptionCost("inc3a", 192, 64, 96, 128, 16, 32, 32, 28)...)
	m.Layers = append(m.Layers, inceptionCost("inc3b", 256, 128, 128, 192, 32, 96, 64, 28)...)
	m.Layers = append(m.Layers, poolCost("pool3-3/2", 480, 14, 14, 3))
	m.Layers = append(m.Layers, inceptionCost("inc4a", 480, 192, 96, 208, 16, 48, 64, 14)...)
	m.Layers = append(m.Layers, inceptionCost("inc4b", 512, 160, 112, 224, 24, 64, 64, 14)...)
	m.Layers = append(m.Layers, inceptionCost("inc4c", 512, 128, 128, 256, 24, 64, 64, 14)...)
	m.Layers = append(m.Layers, inceptionCost("inc4d", 512, 112, 144, 288, 32, 64, 64, 14)...)
	m.Layers = append(m.Layers, inceptionCost("inc4e", 528, 256, 160, 320, 32, 128, 128, 14)...)
	m.Layers = append(m.Layers, poolCost("pool4-3/2", 832, 7, 7, 3))
	m.Layers = append(m.Layers, inceptionCost("inc5a", 832, 256, 160, 320, 32, 128, 128, 7)...)
	m.Layers = append(m.Layers, inceptionCost("inc5b", 832, 384, 192, 384, 48, 128, 128, 7)...)
	m.Layers = append(m.Layers,
		poolCost("pool5-7x7", 1024, 1, 1, 7),
		denseCost("fc", 1024, 1000),
	)
	return m
}

// LeNetCost returns LeNet's cost table without instantiating weights.
func LeNetCost() ModelCost {
	return ModelCost{
		Name:     "lenet",
		Classes:  10,
		InputDim: 28 * 28,
		Layers: []LayerCost{
			convCost("conv1-20x5", 1, 20, 5, 24, 24, 1),
			poolCost("pool1-2/2", 20, 12, 12, 2),
			convCost("conv2-50x5", 20, 50, 5, 8, 8, 1),
			poolCost("pool2-2/2", 50, 4, 4, 2),
			denseCost("fc1", 800, 500),
			denseCost("fc2", 500, 10),
		},
	}
}
