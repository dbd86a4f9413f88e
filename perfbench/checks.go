package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/sim"
)

// The checks compare each run with an independent computation (a task
// oracle, a rescheduled trace) or with a property the run must have
// (paradigm agreement, quality floors, a schedule lower bound, cache
// reuse). None compares with a stored copy of an earlier output. They
// compare the task's sorted Result.Output, never a raw sink table,
// whose row order follows goroutine arrival, and SimSeconds, never the
// float work totals. SimSeconds are held exactly only against the
// run's own trace: from one run to the next they drift in the last
// place, because per-worker work is summed in arrival order.

// checkError is a failed check found while a traced iteration was
// running, as opposed to a task run that failed.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

// oracle is the digest and row count an output must have.
type oracle struct {
	digest uint64
	rows   int
}

func (w oracle) check(o outcome) error {
	if n := o.res.Output.Len(); n != w.rows || o.digest != w.digest {
		return fmt.Errorf("%s: output has %d rows, digest %016x; the oracle has %d rows, digest %016x",
			o.label, n, o.digest, w.rows, w.digest)
	}
	return nil
}

// samePair checks that the script and workflow paradigms computed the
// same output.
func samePair(script, workflow outcome) error {
	if script.digest != workflow.digest || script.res.Output.Len() != workflow.res.Output.Len() {
		return fmt.Errorf("%s and %s disagree: digests %016x and %016x",
			script.label, workflow.label, script.digest, workflow.digest)
	}
	return nil
}

// checkTrace lowers a workflow run's returned trace and schedules it
// again, timing both calls into tr, then checks the result with
// checkSchedule and returns the lower bound. Every failure is a
// *checkError.
func checkTrace(res *dataflow.Result, cfg core.RunConfig, tr tracer) (float64, error) {
	var jobs []sim.Job
	var pools []sim.Pool
	_, err := tr.call("dataflow.lower", func() (err error) {
		jobs, pools, err = dataflow.Lower(res.Trace, cfg.Model)
		return err
	})
	if err != nil {
		return 0, &checkError{fmt.Errorf("lower the returned trace: %w", err)}
	}
	var sched *sim.Result
	_, err = tr.callAlloc("sim.schedule", func() (err error) {
		sched, err = sim.Schedule(jobs, pools)
		return err
	})
	if err != nil {
		return 0, &checkError{fmt.Errorf("schedule the returned trace: %w", err)}
	}
	tr.add("sim.jobs", float64(len(jobs)))
	lb, err := checkSchedule(jobs, pools, sched.Makespan, res.SimSeconds)
	if err != nil {
		return 0, &checkError{err}
	}
	return lb, nil
}

// checkSchedule checks a run's simulated seconds against its lowered
// trace: scheduling the jobs again must give exactly the same makespan,
// and no schedule can beat sim.LowerBound, which it returns.
func checkSchedule(jobs []sim.Job, pools []sim.Pool, rescheduled, simSeconds float64) (float64, error) {
	if rescheduled != simSeconds {
		return 0, fmt.Errorf("the returned trace schedules to %v s, the run reported %v s", rescheduled, simSeconds)
	}
	lb, err := sim.LowerBound(jobs, pools)
	if err != nil {
		return 0, err
	}
	// The bound and the schedule sum the same costs in different
	// orders, so allow for rounding.
	if lb > simSeconds*(1+1e-9) {
		return 0, fmt.Errorf("lower bound %v s exceeds the reported %v s", lb, simSeconds)
	}
	return lb, nil
}

// checkReuse checks a dice-iterate run's cache reuse against its step:
// a cold store reuses nothing, an edit reuses less than the whole
// pipeline, and an unedited re-run reuses all of it.
func checkReuse(o outcome, class string) error {
	rep := o.res.Lineage
	if rep == nil || rep.Units == 0 {
		return fmt.Errorf("%s: no lineage report", o.label)
	}
	var ok bool
	switch class {
	case "cold":
		ok = rep.Reused == 0
	case "edit":
		ok = rep.Reused < rep.Units
	case "hit":
		ok = rep.Reused == rep.Units
	}
	if !ok {
		return fmt.Errorf("%s (%s step): reused %d of %d units", o.label, class, rep.Reused, rep.Units)
	}
	return nil
}
