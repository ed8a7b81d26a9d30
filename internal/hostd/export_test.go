package hostd

// Retained reports, per data channel, how many tasks' failover replay history
// the channel still holds.
func (d *Daemon) Retained() []int {
	out := make([]int, len(d.channels))
	for i, ch := range d.channels {
		out[i] = len(ch.retained)
	}
	return out
}
