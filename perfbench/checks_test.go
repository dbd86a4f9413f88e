package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/relation"
	"repro/internal/sim"
)

// These tests corrupt one output row, one simulated time, one quality
// figure or one reuse count of a real iteration and confirm the check
// rejects it, so a passing check is not vacuous.

// checkedIteration sets up a workload, runs one iteration and requires
// the untouched outcomes to pass.
func checkedIteration(t *testing.T, name string) (instance, []outcome) {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	inst, err := wl.setup(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.prepare(); err != nil {
		t.Fatal(err)
	}
	outs, err := inst.iterate()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != wl.runs {
		t.Fatalf("%d outcomes, want %d", len(outs), wl.runs)
	}
	if err := inst.check(outs); err != nil {
		t.Fatalf("untouched outputs fail the check: %v", err)
	}
	return inst, outs
}

// withResult returns outs with outs[i] replaced by a copy whose result
// edit has changed.
func withResult(outs []outcome, i int, edit func(*core.Result)) []outcome {
	res := *outs[i].res
	edit(&res)
	c := append([]outcome(nil), outs...)
	c[i] = newOutcome(outs[i].label, &res)
	return c
}

// corruptRow changes the last field of the middle output row.
func corruptRow(res *core.Result) {
	src := res.Output
	out := relation.NewTable(src.Schema())
	for i, row := range src.Rows() {
		row = row.Clone()
		if i == src.Len()/2 {
			last := len(row) - 1
			switch v := row[last].(type) {
			case string:
				row[last] = v + "!"
			case int64:
				row[last] = v + 1
			case float64:
				row[last] = math.Nextafter(v, math.Inf(1))
			case bool:
				row[last] = !v
			}
		}
		out.AppendUnchecked(row)
	}
	res.Output = out
}

func mustFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: the check passed", what)
	} else {
		t.Logf("%s: %v", what, err)
	}
}

func TestDiceChecksCatchCorruption(t *testing.T) {
	inst, outs := checkedIteration(t, "dice-stream")
	d := inst.(*diceRun)
	mustFail(t, "corrupt row", inst.check(withResult(outs, 0, corruptRow)))
	mustFail(t, "sim below the lower bound", inst.check(withResult(outs, 0, func(r *core.Result) {
		r.SimSeconds = d.lowerBound / 2
	})))

	_, res, err := d.runLayers(tracer{})
	if err != nil {
		t.Fatal(err)
	}
	jobs, pools, err := dataflow.Lower(res.Trace, d.cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sim.Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSchedule(jobs, pools, sched.Makespan, res.SimSeconds); err != nil {
		t.Fatalf("untouched schedule fails the check: %v", err)
	}
	_, err = checkSchedule(jobs, pools, sched.Makespan, math.Nextafter(res.SimSeconds, 0))
	mustFail(t, "rescheduled sim one ulp off", err)
	_, err = checkSchedule(jobs, pools, 1, 1)
	mustFail(t, "rescheduled sim below the lower bound", err)
}

func TestMLMixChecksCatchCorruption(t *testing.T) {
	inst, outs := checkedIteration(t, "ml-mix")
	mustFail(t, "corrupt gotta workflow row", inst.check(withResult(outs, 1, corruptRow)))
	mustFail(t, "corrupt kge script row", inst.check(withResult(outs, 2, corruptRow)))
	mustFail(t, "corrupt wef script row", inst.check(withResult(outs, 4, corruptRow)))
	mustFail(t, "gotta exact match below its floor", inst.check(withResult(outs, 0, func(r *core.Result) {
		r.Quality = map[string]float64{"exact_match": 0.5, "f1": 0.9}
	})))
	mustFail(t, "wef macro f1 below its floor", inst.check(withResult(outs, 5, func(r *core.Result) {
		r.Quality = map[string]float64{"macro_f1": 0.5}
	})))
}

func TestDiceIterateChecksCatchCorruption(t *testing.T) {
	inst, outs := checkedIteration(t, "dice-iterate")
	mustFail(t, "corrupt edited-step row", inst.check(withResult(outs, 3, corruptRow)))
	last := len(outs) - 1
	mustFail(t, "unedited re-run reuses less than all", inst.check(withResult(outs, last, func(r *core.Result) {
		rep := *r.Lineage
		rep.Reused--
		r.Lineage = &rep
	})))
	mustFail(t, "edited step reuses all", inst.check(withResult(outs, 2, func(r *core.Result) {
		rep := *r.Lineage
		rep.Reused = rep.Units
		r.Lineage = &rep
	})))
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
	same := func(kind string, js []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(js) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(js), len(code))
			return
		}
		for i := range js {
			if js[i].Name != code[i].name || js[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), the command %s (%s)",
					kind, i, js[i].Name, js[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
