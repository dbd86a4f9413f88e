package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/brat"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/telemetry"
	"repro/internal/textproc"
)

// perLayer names the metrics of a traced run, with their units. A
// layer a workload does not run reads 0 there; README.md maps each
// metric to the workloads it is measured on.
var perLayer = []struct{ name, unit string }{
	{"datagen.generate_ms", "ms"},
	{"dataflow.build_ms", "ms"},
	{"dataflow.validate_ms", "ms"},
	{"planopt.optimize_ms", "ms"},
	{"planopt.optimize_alloc_mb", "MB"},
	{"dataflow.run_ms", "ms"},
	{"dataflow.run_alloc_mb", "MB"},
	{"dataflow.run_allocs", "count"},
	{"dataflow.lower_ms", "ms"},
	{"dataflow.exec_ms", "ms"},
	{"sim.schedule_ms", "ms"},
	{"sim.schedule_alloc_mb", "MB"},
	{"sim.jobs", "count"},
	{"dataflow.batches", "count"},
	{"dataflow.edge_tuples", "count"},
	{"dataflow.edge_bytes", "bytes"},
	{"relation.probe_ms", "ms"},
	{"relation.probe_alloc_mb", "MB"},
	{"brat.parse_ms", "ms"},
	{"textproc.split_ms", "ms"},
	{"textproc.tokenize_ms", "ms"},
	{"relation.digest_ms", "ms"},
	{"tasks.dice.script_ms", "ms"},
	{"tasks.dice.script_alloc_mb", "MB"},
	{"tasks.dice.workflow_ms", "ms"},
	{"tasks.dice.workflow_alloc_mb", "MB"},
	{"tasks.gotta.script_ms", "ms"},
	{"tasks.gotta.script_alloc_mb", "MB"},
	{"tasks.gotta.workflow_ms", "ms"},
	{"tasks.gotta.workflow_alloc_mb", "MB"},
	{"tasks.kge.script_ms", "ms"},
	{"tasks.kge.script_alloc_mb", "MB"},
	{"tasks.kge.workflow_ms", "ms"},
	{"tasks.kge.workflow_alloc_mb", "MB"},
	{"tasks.wef.script_ms", "ms"},
	{"tasks.wef.script_alloc_mb", "MB"},
	{"tasks.wef.workflow_ms", "ms"},
	{"tasks.wef.workflow_alloc_mb", "MB"},
	{"lineage.cold_ms", "ms"},
	{"lineage.edit_ms", "ms"},
	{"lineage.hit_ms", "ms"},
	{"lineage.reused_units", "count"},
	{"lineage.hit_bytes", "bytes"},
	{"lineage.commit_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"trace.wall_ms", "ms"},
	{"trace.untraced_wall_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// tracer collects one traced iteration's per-layer figures, summed by
// metric name.
type tracer map[string]float64

func (t tracer) add(name string, v float64) { t[name] += v }

// call runs f and adds its wall time to name_ms.
func (t tracer) call(name string, f func() error) (callCost, error) {
	c, err := measureCall(f)
	t.add(name+"_ms", c.ms)
	return c, err
}

// callAlloc is call that also adds the heap bytes f allocated to
// name_alloc_mb.
func (t tracer) callAlloc(name string, f func() error) (callCost, error) {
	c, err := t.call(name, f)
	t.add(name+"_alloc_mb", c.mb)
	return c, err
}

// callCost is what one call cost the process.
type callCost struct{ ms, mb, allocs float64 }

func measureCall(f func() error) (callCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := telemetry.WallClock()
	err := f()
	wall := telemetry.WallSince(t0)
	runtime.ReadMemStats(&m1)
	return callCost{
		ms:     ms(wall),
		mb:     float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		allocs: float64(m1.Mallocs - m0.Mallocs),
	}, err
}

// measureTraced is the traced run. After set-up and a warm-up it
// alternates a traced iteration with an untraced one until d has
// passed; the per-layer figures are medians over the traced
// iterations, and the untraced ones give the tracing overhead and the
// GC cycles an iteration costs.
func measureTraced(wl workload, seed uint64, d time.Duration, stderr io.Writer) (*report, error) {
	inst, setupS, t, err := start(wl, seed)
	if err != nil {
		return nil, err
	}
	series := map[string][]float64{}
	var tracedWalls, walls, gcs []float64
	for began := telemetry.WallClock(); telemetry.WallSince(began) < d; {
		tr := tracer{}
		s := t.tracedIteration(inst, wl.runs, tr)
		for name, v := range tr {
			series[name] = append(series[name], v)
		}
		tracedWalls = append(tracedWalls, ms(s.wall))
		_, s = t.iteration(inst, wl.runs)
		walls = append(walls, ms(s.wall))
		gcs = append(gcs, float64(s.gcs))
	}
	vals := map[string]float64{
		"datagen.generate_ms":    setupS * 1e3,
		"runtime.gc_cycles":      median(gcs),
		"trace.wall_ms":          median(tracedWalls),
		"trace.untraced_wall_ms": median(walls),
	}
	vals["trace.overhead_pct"] = 100 * (vals["trace.wall_ms"]/vals["trace.untraced_wall_ms"] - 1)
	for name, xs := range series {
		vals[name] = median(xs)
	}
	metrics := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	for name := range vals {
		if _, ok := metrics[name]; !ok {
			return nil, fmt.Errorf("traced run recorded %q, which is not a per-layer metric", name)
		}
	}
	fmt.Fprintf(stderr, "perfbench: %s: %d traced iterations, traced wall ms %v, untraced %v\n",
		wl.name, len(tracedWalls), tracedWalls, walls)
	return t.report(metrics, stderr), nil
}

// tracedIteration runs and checks one traced iteration, counting it as
// iteration does.
func (t *tally) tracedIteration(inst instance, runs int, tr tracer) sample {
	var outs []outcome
	var err error
	s := timeIteration(func() { outs, err = inst.traced(tr) })
	t.attempted += runs
	var ce *checkError
	switch {
	case errors.As(err, &ce):
		t.fail(ce)
	case err != nil:
		t.failed += runs - len(outs)
	default:
		t.fail(inst.check(outs))
	}
	return s
}

// replayLayers times the DICE layers the executor calls from its
// goroutines, replayed over this workload's inputs: BRAT parsing,
// sentence splitting and, on an unoptimized plan, the three streaming
// hash joins, each probed in the batch size its probe edge carried in
// this run.
func (d *diceRun) replayLayers(tr tracer, trace *dataflow.Trace) error {
	if _, err := tr.call("brat.parse", func() error {
		for _, s := range d.annFiles {
			if _, err := brat.ParseString(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	tr.call("textproc.split", func() error {
		for _, s := range d.texts {
			textproc.SplitSentences(s)
		}
		return nil
	})
	for _, j := range d.joins {
		node, batch, err := j.observed(trace)
		if err != nil {
			return &checkError{err}
		}
		var rows int
		if _, err := tr.callAlloc("relation.probe", func() (err error) {
			rows, err = j.replay(batch)
			return err
		}); err != nil {
			return err
		}
		if int64(rows) != node.OutTuples {
			return &checkError{fmt.Errorf("join %s: replay emitted %d rows, the run %d", j.node, rows, node.OutTuples)}
		}
	}
	return nil
}

// joinReplay is one of the DICE workflow's hash joins, its build table
// and probe rows rebuilt from the cases, so relation.Joiner can be
// timed apart from the executor.
type joinReplay struct {
	node               string // the workflow operator's name
	probeSchema        *relation.Schema
	probeKey, buildKey string
	build              *relation.Table
	probe              []relation.Tuple
}

// observed finds the join's node in a run's trace and the mean batch
// size of its probe edge, the edge that carried as many tuples as the
// replay probes.
func (j joinReplay) observed(trace *dataflow.Trace) (*dataflow.NodeTrace, int, error) {
	for i := range trace.Nodes {
		n := &trace.Nodes[i]
		if n.Name != j.node {
			continue
		}
		for _, e := range trace.Edges {
			if e.To == n.ID && e.Tuples == int64(len(j.probe)) && e.Batches > 0 {
				return n, int((e.Tuples + e.Batches - 1) / e.Batches), nil
			}
		}
		return nil, 0, fmt.Errorf("join %s: no edge carried its %d probe rows", j.node, len(j.probe))
	}
	return nil, 0, fmt.Errorf("join %s: not in the trace", j.node)
}

// replay builds the joiner and probes it batch by batch, as the
// dataflow join operator does, returning the rows emitted.
func (j joinReplay) replay(batch int) (int, error) {
	jn, err := relation.NewJoiner(j.probeSchema, j.build, j.probeKey, j.buildKey, relation.Inner, 1)
	if err != nil {
		return 0, err
	}
	rows := 0
	for i := 0; i < len(j.probe); i += batch {
		rows += len(jn.ProbeRows(nil, j.probe[i:min(i+batch, len(j.probe))]))
	}
	return rows, nil
}

// diceJoins rebuilds the inputs of the DICE workflow's three joins
// from the generated cases: events with a Theme against entities,
// merged events against their trigger entities, and resolved events
// against the sentences of their case.
func diceJoins(cases []datagen.ClinicalCase) []joinReplay {
	str := func(name string) relation.Field { return relation.Field{Name: name, Type: relation.String} }
	num := func(name string) relation.Field { return relation.Field{Name: name, Type: relation.Int} }
	entities := relation.NewTable(relation.MustSchema(str("ekey"), num("start"), num("end"), str("text")))
	sentences := relation.NewTable(relation.MustSchema(str("case"), str("sentence"), num("sstart"), num("send")))
	var themed, merged, resolved []relation.Tuple
	for _, c := range cases {
		byID := make(map[string]brat.Entity, len(c.Ann.Entities))
		for _, e := range c.Ann.Entities {
			byID[e.ID] = e
			entities.AppendUnchecked(relation.Tuple{c.ID + "|" + e.ID, int64(e.Start), int64(e.End), e.Text})
		}
		for _, s := range textproc.SplitSentences(c.Text) {
			sentences.AppendUnchecked(relation.Tuple{c.ID, s.Text, int64(s.Start), int64(s.End)})
		}
		for _, ev := range c.Ann.Events {
			trigkey, themeText := c.ID+"|"+ev.Trigger, ""
			for _, a := range ev.Args {
				if a.Role == "Theme" {
					themed = append(themed, relation.Tuple{c.ID, ev.ID, ev.Type, trigkey, c.ID + "|" + a.Ref})
					themeText = byID[a.Ref].Text
					break
				}
			}
			merged = append(merged, relation.Tuple{c.ID, ev.ID, ev.Type, trigkey, themeText})
			trig := byID[ev.Trigger]
			resolved = append(resolved, relation.Tuple{c.ID, ev.ID, ev.Type, trigkey, themeText,
				int64(trig.Start), int64(trig.End), trig.Text})
		}
	}
	event := []relation.Field{str("case"), str("id"), str("etype"), str("trigkey")}
	withField := func(fs ...relation.Field) *relation.Schema {
		return relation.MustSchema(append(append([]relation.Field(nil), event...), fs...)...)
	}
	return []joinReplay{
		{"join-theme-entities", withField(str("themekey")), "themekey", "ekey", entities, themed},
		{"join-trigger-entities", withField(str("theme_text")), "trigkey", "ekey", entities, merged},
		{"join-sentences", withField(str("theme_text"), num("start"), num("end"), str("text")), "case", "case", sentences, resolved},
	}
}
