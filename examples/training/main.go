// Training: a BytePS-style parameter-server round (§5.6) whose gradient push
// is aggregated in-network, compared with a plain parameter server. The ASK
// row is the synchronous-INA push model that ATP and SwitchML run, with ASK's
// packet geometry; it is not a value stream through ask.Deployment.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"

	"repro/internal/training"
)

func main() {
	model, err := training.ModelByName("VGG16")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training %s (%.1f M parameters, %.0f MB gradients) on 8 workers\n\n",
		model.Name, float64(model.Params)/1e6, float64(model.GradBytes())/1e6)

	opts := training.Options{Workers: 8, GradScale: 128, Seed: 1}
	var hostPS float64
	for _, sys := range []training.System{training.SysHostPS, training.SysSwitchML, training.SysATP, training.SysASK} {
		rep, err := training.Train(model, sys, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %7.1f images/s   (compute %v + push %v + pull %v per iteration)\n",
			sys, rep.ImagesPerSec, rep.Compute.Round(0), rep.Push.Round(0), rep.Pull.Round(0))
		if sys == training.SysHostPS {
			hostPS = rep.ImagesPerSec
		}
		if sys == training.SysASK {
			fmt.Printf("\nASK trains %.2f× faster than the host-only parameter server:\n", rep.ImagesPerSec/hostPS)
			fmt.Println("the switch sums gradients in flight, so the PS link carries one")
			fmt.Println("aggregated stream instead of eight.")
		}
	}
}
