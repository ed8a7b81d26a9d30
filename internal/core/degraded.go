package core

import "fmt"

// DegradedError is the typed degradation signal of the failure model (the
// host-only rung of README's degradation ladder): a control-plane operation
// could not be served in-network because the switches it needs are down, and
// the caller must fall back to host-only aggregation until the fabric heals. It is a
// transient condition — the next fabric epoch (a reboot) re-opens the
// in-network path — which distinguishes it from permanent rejections such as
// quota overloads (tenancy.OverloadError). Match with errors.As.
type DegradedError struct {
	// Op names the failed control-plane operation ("register-flow",
	// "alloc-region", ...).
	Op string
	// Addr is the fabric address of the unavailable switch, or 0 when the
	// whole candidate set was down rather than one specific switch.
	Addr HostID
	// Attempts counts the aggregation points that were tried (or skipped as
	// down) before the operation gave up.
	Attempts int
}

func (e *DegradedError) Error() string {
	if e.Addr != 0 {
		return fmt.Sprintf("core: %s degraded: switch %#x is down (%d attempts)", e.Op, uint16(e.Addr), e.Attempts)
	}
	return fmt.Sprintf("core: %s degraded: no live aggregation point (%d attempts)", e.Op, e.Attempts)
}
