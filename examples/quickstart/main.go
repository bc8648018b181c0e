// Quickstart: train one model with the paper's best method (Sync EASGD3,
// the "Communication-Efficient EASGD") on four simulated GPUs, print the
// accuracy trajectory and the §6.1.1 time breakdown, then round-trip the
// trained model through the public Model API (Save → LoadModel → Predict).
package main

import (
	"bytes"
	"fmt"
	"log"

	"scaledl"
)

func main() {
	// Synthetic MNIST-shaped data: the real dataset cannot be downloaded
	// offline; geometry and learnability match.
	train, test := scaledl.SyntheticMNIST(1, 2048, 512)

	cfg := scaledl.Config{
		Def:        scaledl.TinyCNN(scaledl.Shape{C: 1, H: 28, W: 28}, 10),
		Train:      train,
		Test:       test,
		Workers:    4,    // four GPUs behind one PCIe switch
		Batch:      32,   // per-GPU minibatch
		LR:         0.05, // η
		Iterations: 100,  // synchronous rounds (4 batches each)
		Seed:       1,
		Platform:   scaledl.DefaultGPUPlatform(true), // packed §5.2 layout
		EvalEvery:  10,
	}

	res, err := scaledl.Train("sync-easgd3", cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Sync EASGD3 on 4 simulated GPUs (MNIST-regime):")
	for _, pt := range res.Curve {
		fmt.Printf("  round %3d  sim %.4fs  loss %.4f  accuracy %.3f\n",
			pt.Iter, pt.SimTime, pt.Loss, pt.TestAcc)
	}
	fmt.Printf("\nfinal accuracy %.3f in %.4f simulated seconds (%d samples)\n",
		res.FinalAcc, res.SimTime, res.Samples)
	fmt.Printf("communication share of iteration time: %.0f%% (paper: 14%% for Sync EASGD3)\n",
		res.Breakdown.CommRatio()*100)

	// The trained model is a first-class artifact: snapshot it, reload it,
	// and predict — the same path cmd/scaledl-serve serves over HTTP.
	model := res.Model()
	var snap bytes.Buffer
	if err := model.Save(&snap); err != nil {
		log.Fatal(err)
	}
	snapBytes := snap.Len()
	reloaded, err := scaledl.LoadModel(&snap)
	if err != nil {
		log.Fatal(err)
	}
	dim := reloaded.InputDim()
	logits, err := reloaded.Predict(test.Images[:dim], 1)
	if err != nil {
		log.Fatal(err)
	}
	argmax := 0
	for i, v := range logits {
		if v > logits[argmax] {
			argmax = i
		}
	}
	fmt.Printf("\nmodel snapshot: %d bytes; reloaded and predicted class %d (label %d) for the first test image\n",
		snapBytes, argmax, test.Labels[0])
}
