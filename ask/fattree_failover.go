package ask

// Hierarchical failover for the fat-tree fabric (README "Failure model").
//
// The rack's epoch protocol generalizes to the spine/leaf fabric through one
// rule: the fabric shares a single epoch. Every switch outage event — a
// crash AND the later reboot — advances FatTreeCluster's fabricEpoch, and
// the controller synchronously (a) pushes the new epoch into every live
// switch (switchd.SetEpoch) and (b) frees every task's regions fabric-wide.
// Hosts observe the new incarnation through whatever stamped packet reaches
// them first (leaf-terminated probe replies, ACKs) and run the unchanged
// hostd recovery: re-register flows at their current window position, replay
// retained history as host-only bypass traffic, re-allocate regions.
//
// Freeing ALL regions at every bump — rather than keeping survivors on
// switches that did not crash — is what makes exactly-one-absorption hold
// across tiers. A surviving region would keep absorbing old-epoch packets
// still in flight after the bump while the sender replays the same records
// (double count), and conversely a region kept across the bump could absorb
// new-epoch traffic whose history records then carry absorbEpoch equal to
// the live registration, which replay skips (lost tuples). With the bump
// acting as a fabric-wide barrier, every tuple is either already claimed at
// the receiver (the claimBits ledger keeps replays from re-counting it) or
// recovered by replay; absorbed-but-unfetched state anywhere on the tree is
// discarded and replayed exactly once.
//
// Spine outages re-elect: netsim.SpineFor walks the task-hashed candidate
// order (h, h+1, ...) and returns the first live spine, so routing and
// region placement move together. Spines run sequence-tagged seen state, so
// the re-elected spine tolerates the mid-stream sequence jump. With no live
// spine the task degrades to leaf-only absorption plus host merge. Leaf
// outages cut that leaf's hosts off entirely; they degrade via probe
// timeouts and recover — replaying their history, restoring cross-leaf
// residue — at the heal-time bump.
//
// The multi-rack preset (a forwarding core, regions at the receiver's TOR)
// runs this policy unchanged: a TOR outage is a leaf outage. The epoch stays
// fabric-wide there too — a per-rack epoch would be a second policy nobody
// needs, and the fabric-wide bump is the one the soak has verified.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// DegradedError is the typed degradation signal returned by fabric
// control-plane operations (region allocation, flow re-registration) while
// the switches they need are down; match with errors.As. See
// core.DegradedError for the fields.
type DegradedError = core.DegradedError

// liveSpine returns the task's spine after re-election: the first live
// candidate in task-hashed order, matching netsim's frame routing. ok is
// false when every spine is down.
func (fc *FatTreeCluster) liveSpine(t core.TaskID) (int, bool) {
	s := fc.Net.SpineFor(t)
	if fc.Net.SpineIsDown(s) {
		return 0, false
	}
	return s, true
}

// setSwitchDown is the fat-tree's outage-epoch policy (CrashSwitch /
// RebootSwitch): the switch crashes or reboots as a fresh incarnation, the
// fabric's routing mirrors its state (a down leaf also black-holes its
// host-delivery path), and the fabric epoch advances so live switches and
// hosts converge on the new incarnation. Crashing an already-crashed switch
// is a no-op. It returns an error when addr names no switch or the
// deployment was built without Config.Failover (a crash would deadlock
// in-flight tasks).
func (fc *FatTreeCluster) setSwitchDown(addr core.HostID, down bool) error {
	if !fc.cfg.Failover {
		return fmt.Errorf("ask: fat-tree switch outages require Config.Failover")
	}
	sw := fc.switchAt(addr)
	if sw == nil {
		return fmt.Errorf("ask: no switch at fabric address %#x", addr)
	}
	if down {
		if sw.Down() {
			return nil
		}
		sw.Crash()
	} else {
		sw.Reboot()
	}
	if sp, ok := netsim.SpineIndex(addr, len(fc.Spines)); ok {
		fc.Net.SetSpineDown(sp, down)
	} else if l, ok := netsim.LeafIndex(addr, len(fc.Leaves)); ok {
		fc.Net.SetLeafDown(l, down)
	}
	fc.bumpFabricEpoch()
	return nil
}

// bumpFabricEpoch advances the fabric-wide incarnation: every live switch
// is stamped with the new epoch and every task's regions are discarded
// fabric-wide (see the package comment above for why freeing at the bump —
// not re-using surviving regions — is what keeps exactly-one-absorption).
// Tenancy rows return to their quotas; receivers re-admit on re-attach.
func (fc *FatTreeCluster) bumpFabricEpoch() {
	fc.fabricEpoch++
	for _, sw := range fc.switches() {
		if !sw.Down() {
			sw.SetEpoch(fc.fabricEpoch)
		}
	}
	// Sorted task order: map iteration order must not leak into the event
	// sequence (simdeterminism).
	ids := make([]core.TaskID, 0, len(fc.allocs))
	for id := range fc.allocs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		// The live switches just held these regions and cannot refuse.
		_ = fc.freeRegion(id)
	}
	if fc.Tel != nil {
		fc.Tel.Registry.Counter("fabric.epoch_bumps").Inc()
		fc.Tel.Tracer.EmitNote(telemetry.CompChaos, "fabric_epoch",
			int64(fc.fabricEpoch), fmt.Sprintf("epoch %d, %d regions discarded", fc.fabricEpoch, len(ids)))
	}
}
