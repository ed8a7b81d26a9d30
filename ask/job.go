package ask

import (
	"fmt"

	"repro/internal/core"
)

// Job is one aggregation task together with the reference its result must
// equal: the plain keyed reduce of everything its senders stream (§2.1.1,
// Eq. 2), folded on the host from the sources themselves and never taken from
// a deployment, so a broken datapath cannot contaminate it. Build one with
// NewJob and Send, or as a literal when the streams need their own pacing.
type Job struct {
	Spec core.TaskSpec
	// Streams holds each sender's stream on the sim clock; a plain stream is
	// a timed one with every arrival at offset zero.
	Streams map[core.HostID]core.TimedStream
	Want    core.Result

	pending *PendingTask
}

// NewJob starts a job for spec; Send and SendTimed add its senders.
func NewJob(spec core.TaskSpec) *Job {
	return &Job{Spec: spec, Streams: make(map[core.HostID]core.TimedStream), Want: make(core.Result)}
}

// Send makes h a sender streaming src back to back and folds src into Want.
// src hands out a fresh, identical stream on every call, as the workload
// generators do (workload.Spec, scenario.Scenario).
func (j *Job) Send(h core.HostID, src interface{ Stream() core.Stream }) {
	j.send(h, src.Stream().Timed(), src.Stream())
}

// SendTimed makes h a sender replaying tkvs — a recorded trace, or its share
// of one — at their arrival offsets, and folds them into Want.
func (j *Job) SendTimed(h core.HostID, tkvs []core.TimedKV) {
	j.send(h, core.SliceTimedStream(tkvs), core.SliceTimedStream(tkvs).Untimed())
}

func (j *Job) send(h core.HostID, stream core.TimedStream, ref core.Stream) {
	j.Spec.Senders = append(j.Spec.Senders, h)
	j.Streams[h] = stream
	j.Want.Merge(core.ReferenceStreams(j.Spec.Op, ref), j.Spec.Op)
}

// Label names the job in reports and violations: its tenant, or "task" when
// the task ID carries none (the rack, the multi-rack, an untenanted fat-tree).
func (j *Job) Label() string {
	if tn := j.Spec.ID.Tenant(); tn != 0 {
		return fmt.Sprintf("tenant %d", tn)
	}
	return "task"
}

// Result returns the job's outcome once the simulation has run. The task's
// own error comes back unchanged, as from PendingTask.Get: it did not
// complete, or it was refused (on tenant-partitioned fat-trees match
// admission rejections with errors.As against *tenancy.OverloadError). When
// the task completed with an aggregate that differs from Want, Result returns
// the outcome together with a *core.MismatchError carrying the Diff.
func (j *Job) Result() (*TaskResult, error) {
	if j.pending == nil {
		return nil, fmt.Errorf("ask: task %d was not started", j.Spec.ID)
	}
	res, err := j.pending.Get()
	if err != nil {
		return nil, err
	}
	return res, res.Result.Verify(j.Want)
}

// Start submits the jobs in order without running the simulation (see
// StartTaskTimed); run it — to quiescence with Sim.Run(0), or up to a
// deadline — and collect with Job.Result. It returns the first submission
// error, naming the task.
func (c *Deployment) Start(jobs ...*Job) error {
	for _, j := range jobs {
		pt, err := c.StartTaskTimed(j.Spec, j.Streams)
		if err != nil {
			return fmt.Errorf("ask: task %d: %w", j.Spec.ID, err)
		}
		j.pending = pt
	}
	return nil
}

// Run is the one run-and-verify step: start the jobs in order, run the
// simulation to quiescence, and hand back each task's outcome only if every
// one of them equals its job's reference. It returns the first error of Start
// or of a Job.Result, naming the task; a wrong aggregate is a
// *core.MismatchError (errors.As).
func (c *Deployment) Run(jobs ...*Job) ([]*TaskResult, error) {
	if err := c.Start(jobs...); err != nil {
		return nil, err
	}
	c.Sim.Run(0)
	results := make([]*TaskResult, len(jobs))
	for i, j := range jobs {
		res, err := j.Result()
		if err != nil {
			return nil, fmt.Errorf("ask: task %d: %w", j.Spec.ID, err)
		}
		results[i] = res
	}
	return results, nil
}
