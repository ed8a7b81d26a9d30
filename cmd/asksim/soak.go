package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
)

// soaks maps -topology to its soak kind and the -soak.* flags that kind has
// no use for (rejected up front, see rejectFlags).
var soaks = map[string]struct {
	kind    chaos.Kind
	rejects map[string]string
}{
	"rack": {chaos.Rack, map[string]string{
		"soak.spines": "the rack has a single switch", "soak.leaves": "the rack has a single switch",
	}},
	"fattree": {chaos.FabricOutage, map[string]string{
		"soak.senders":         "the fat-tree soak derives its senders from -soak.leaves (one per non-receiver leaf, per tenant)",
		"soak.break-checksums": "the checksum fault hook demo runs on the rack soak",
	}},
	"multirack": {chaos.MultiRackOutage, map[string]string{
		"soak.senders":         "the multi-rack soak sends from one host per rack (-soak.leaves racks)",
		"soak.spines":          "the racks join at one forwarding core",
		"soak.break-checksums": "the checksum fault hook demo runs on the rack soak",
	}},
}

// runSoak runs the topology's soak kind on `runs` consecutive seeds starting
// at cfg.Seed. A soak builds its deployments and workloads from -topology and
// the -soak.* flags alone, so every other flag set on the command line is
// rejected rather than ignored.
func runSoak(topology string, runs int, cfg chaos.Config) {
	single := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name != "topology" && !strings.HasPrefix(f.Name, "soak") {
			single[f.Name] = "a soak builds its deployments and workloads from -topology and the -soak.* flags"
		}
	})
	rejectFlags(single, "-soak")
	soak, ok := soaks[topology]
	if !ok {
		fail("-soak has no %q schedule (rack, multirack or fattree)", topology)
	}
	rejectFlags(soak.rejects, "the "+topology+" soak")
	cfg.Kind = soak.kind
	passed := true
	for i := 0; i < runs; i++ {
		rep, err := chaos.Soak(cfg)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(rep)
		passed = passed && rep.Passed()
		cfg.Seed++
	}
	if !passed {
		os.Exit(1)
	}
}
