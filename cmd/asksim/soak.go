package main

import (
	"fmt"
	"os"

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
// at cfg.Seed.
func runSoak(topology string, runs int, cfg chaos.Config) {
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
