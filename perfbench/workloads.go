package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/brat"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/lineage"
	"repro/internal/planopt"
	"repro/internal/relation"
	"repro/internal/tasks/dice"
	"repro/internal/tasks/gotta"
	"repro/internal/tasks/kge"
	"repro/internal/tasks/wef"
	"repro/internal/textproc"
)

// Input sizes. Every workload runs its simulated operators on 8
// workers (16 on the four-node tier); those are goroutines, not OS
// threads.
const (
	dicePairs        = 2000
	diceIteratePairs = 500
	gottaParagraphs  = 400
	kgeProducts      = 20000
	wefTweets        = 1000
	workers          = 8
	shardedNodes     = 8
	shardedWorkers   = 16
)

// workload is one benchmark input set. runs is the number of task runs
// in one iteration, the unit counted in attempted and failed.
type workload struct {
	name  string
	runs  int
	setup func(seed uint64) (instance, error)
}

// instance is a workload bound to the inputs generated from one seed.
type instance interface {
	// prepare computes the check references (oracles, the rescheduled
	// makespan) once, outside every timed region.
	prepare() error
	// iterate performs every task run of one iteration and digests
	// each output.
	iterate() ([]outcome, error)
	// traced performs the same iteration through the layers' public
	// calls, adding per-layer figures to tr. A failed check it makes
	// itself comes back as a *checkError.
	traced(tr tracer) ([]outcome, error)
	// check verifies one iteration's outcomes.
	check(outs []outcome) error
}

var workloads = []workload{
	{"dice-stream", 1, func(seed uint64) (instance, error) {
		return newDiceRun(seed, 1, workers, false)
	}},
	{"dice-sharded", 1, func(seed uint64) (instance, error) {
		return newDiceRun(seed, shardedNodes, shardedWorkers, true)
	}},
	{"ml-mix", 6, newMLMix},
	{"dice-iterate", 2 * len(iterateSteps), newDiceIterate},
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// outcome is one task run's result with the digest of its sorted
// output table.
type outcome struct {
	label  string
	res    *core.Result
	digest uint64
}

func newOutcome(label string, res *core.Result) outcome {
	return outcome{label: label, res: res, digest: relation.Digest(res.Output)}
}

// diceRun is the DICE workflow at dicePairs, one run per iteration.
type diceRun struct {
	task *dice.Task
	cfg  core.RunConfig

	oracle oracle
	// lowerBound is sim.LowerBound of the lowered workflow: no run of
	// these inputs can take fewer simulated seconds.
	lowerBound float64
	// Inputs of the traced run's layer replays.
	annFiles []string
	texts    []string
	joins    []joinReplay
}

func newDiceRun(seed uint64, nodes, workers int, optimize bool) (instance, error) {
	cfg, err := core.NewRunConfig(core.WithWorkers(workers), core.WithNodes(nodes), core.WithOptimize(optimize))
	if err != nil {
		return nil, err
	}
	task, err := dice.New(dice.Params{Pairs: dicePairs, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &diceRun{task: task, cfg: cfg}, nil
}

const diceLabel = "dice/workflow"

func (d *diceRun) prepare() error {
	var err error
	if d.oracle, err = diceOracle(d.task.Cases()); err != nil {
		return err
	}
	cases := d.task.Cases()
	d.annFiles = make([]string, len(cases))
	d.texts = make([]string, len(cases))
	for i, c := range cases {
		d.annFiles[i] = brat.Render(c.Ann)
		d.texts[i] = c.Text
	}
	if !d.cfg.Optimize {
		// The optimizer swaps, broadcasts and fuses the joins, so a
		// replay of the written plan's joins would not be the run's.
		d.joins = diceJoins(cases)
	}
	// One run through the layers, checked against its own trace, gives
	// the lower bound every later run is checked against.
	o, res, err := d.runLayers(tracer{})
	if err != nil {
		return err
	}
	if err := d.oracle.check(o); err != nil {
		return err
	}
	d.lowerBound, err = checkTrace(res, d.cfg, tracer{})
	return err
}

func (d *diceRun) iterate() ([]outcome, error) {
	res, err := d.task.Run(core.Workflow, d.cfg)
	if err != nil {
		return nil, err
	}
	return []outcome{newOutcome(diceLabel, res)}, nil
}

func (d *diceRun) check(outs []outcome) error {
	if len(outs) != 1 {
		return fmt.Errorf("dice: %d outcomes, want 1", len(outs))
	}
	if err := d.oracle.check(outs[0]); err != nil {
		return err
	}
	// Task.Run returns no trace to reschedule, and its simulated seconds
	// drift in the last place from run to run, so they are held to the
	// lower bound; runs through the layers are checked exactly.
	if o := outs[0]; o.res.SimSeconds < d.lowerBound*(1-1e-9) {
		return fmt.Errorf("%s: simulated %v s, below the lower bound %v s", o.label, o.res.SimSeconds, d.lowerBound)
	}
	return nil
}

// runLayers runs the DICE workflow as dice.Task.Run does, one public
// call per layer, timing each call into tr: plan build, validation,
// optimization, execution, output shaping and digest.
func (d *diceRun) runLayers(tr tracer) (outcome, *dataflow.Result, error) {
	var w *dataflow.Workflow
	var res *dataflow.Result
	var o outcome
	total, err := measureCall(func() error {
		_, err := tr.call("dataflow.build", func() (err error) {
			w, err = d.task.WorkflowPlan(d.cfg.Workers)
			return err
		})
		if err != nil {
			return err
		}
		if _, err := tr.call("dataflow.validate", func() error { return validate(w) }); err != nil {
			return err
		}
		if d.cfg.Optimize {
			_, err := tr.callAlloc("planopt.optimize", func() error {
				_, err := planopt.Optimize(w, planopt.ConfigOptions(d.cfg))
				return err
			})
			if err != nil {
				return err
			}
		}
		c, err := tr.callAlloc("dataflow.run", func() (err error) {
			res, err = w.Run(context.Background(), dataflow.Config{
				Model: d.cfg.Model, Cluster: d.cfg.Cluster(), Shard: d.cfg.Topology(),
			})
			return err
		})
		if err != nil {
			return err
		}
		tr.add("dataflow.run_allocs", c.allocs)
		rows := res.Tables["maccrobat-ee"].Rows()
		recs := make([]dice.Record, len(rows))
		for i, r := range rows {
			recs[i] = dice.Record{
				Case: r.MustStr(0), Event: r.MustStr(1), Type: r.MustStr(2),
				Trigger: r.MustStr(3), Theme: r.MustStr(4), Sentence: r.MustStr(5),
			}
		}
		out := &core.Result{Task: "dice", Paradigm: core.Workflow, SimSeconds: res.SimSeconds, Output: dice.RecordsToTable(recs)}
		_, err = tr.call("relation.digest", func() error { o = newOutcome(diceLabel, out); return nil })
		return err
	})
	if err != nil {
		return outcome{}, nil, err
	}
	// The task's own time leaves out validation, which dice.Task.Run
	// does not do.
	tr.add("tasks.dice.workflow_ms", total.ms-tr["dataflow.validate_ms"])
	tr.add("tasks.dice.workflow_alloc_mb", total.mb)
	return o, res, nil
}

// validate runs the plan-time validator and fails on any diagnostic.
func validate(w *dataflow.Workflow) error {
	if diags := dataflow.Validate(w); len(diags) > 0 {
		return fmt.Errorf("validate: %d diagnostics, first %s", len(diags), diags[0])
	}
	return nil
}

func (d *diceRun) traced(tr tracer) ([]outcome, error) {
	o, res, err := d.runLayers(tr)
	if err != nil {
		return nil, err
	}
	if _, err := checkTrace(res, d.cfg, tr); err != nil {
		return []outcome{o}, err
	}
	tr.add("dataflow.exec_ms", tr["dataflow.run_ms"]-tr["dataflow.lower_ms"]-tr["sim.schedule_ms"])
	var batches, tuples, bytes int64
	for _, e := range res.Trace.Edges {
		batches += e.Batches
		tuples += e.Tuples
		bytes += e.Bytes
	}
	tr.add("dataflow.batches", float64(batches))
	tr.add("dataflow.edge_tuples", float64(tuples))
	tr.add("dataflow.edge_bytes", float64(bytes))
	if err := d.replayLayers(tr, res.Trace); err != nil {
		return []outcome{o}, err
	}
	return []outcome{o}, nil
}

// mlMix runs GOTTA, KGE and WEF under both paradigms per iteration.
type mlMix struct {
	gotta *gotta.Task
	kge   *kge.Task
	wef   *wef.Task
	cfg   core.RunConfig

	kgeOracle oracle
	texts     []string // tweets and passages, for the tokenizer replay
}

func newMLMix(seed uint64) (instance, error) {
	cfg, err := core.NewRunConfig(core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	m := &mlMix{cfg: cfg}
	if m.gotta, err = gotta.New(gotta.Params{Paragraphs: gottaParagraphs, Seed: seed}); err != nil {
		return nil, err
	}
	if m.kge, err = kge.New(kge.Params{Products: kgeProducts, Seed: seed}); err != nil {
		return nil, err
	}
	if m.wef, err = wef.New(wef.Params{Tweets: wefTweets, Seed: seed}); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *mlMix) prepare() error {
	recs, err := m.kge.Oracle()
	if err != nil {
		return err
	}
	out := kge.RecommendationsToTable(recs)
	m.kgeOracle = oracle{digest: relation.Digest(out), rows: out.Len()}
	m.texts = m.texts[:0]
	for _, t := range m.wef.Tweets() {
		m.texts = append(m.texts, t.Text)
	}
	for _, p := range m.gotta.Passages() {
		m.texts = append(m.texts, p.Text)
	}
	return nil
}

func (m *mlMix) iterate() ([]outcome, error) { return m.runAll(nil) }

func (m *mlMix) traced(tr tracer) ([]outcome, error) {
	outs, err := m.runAll(tr)
	if err != nil {
		return outs, err
	}
	_, err = tr.call("textproc.tokenize", func() error {
		for _, s := range m.texts {
			textproc.Tokenize(s)
		}
		return nil
	})
	return outs, err
}

// runAll runs every task under both paradigms.
func (m *mlMix) runAll(tr tracer) ([]outcome, error) {
	var outs []outcome
	for _, t := range []core.Task{m.gotta, m.kge, m.wef} {
		for _, p := range []core.Paradigm{core.Script, core.Workflow} {
			o, _, err := runTask(tr, t.Name()+"/"+p.String(), t, p, m.cfg)
			if err != nil {
				return outs, err
			}
			outs = append(outs, o)
		}
	}
	return outs, nil
}

// runTask runs one task under one paradigm and digests its output.
// With a tracer it times the run as tasks.<task>.<paradigm> and the
// digest as relation.digest.
func runTask(tr tracer, label string, t core.Task, p core.Paradigm, cfg core.RunConfig) (outcome, callCost, error) {
	if tr == nil {
		res, err := t.Run(p, cfg)
		if err != nil {
			return outcome{}, callCost{}, fmt.Errorf("%s: %w", label, err)
		}
		return newOutcome(label, res), callCost{}, nil
	}
	var res *core.Result
	c, err := tr.callAlloc("tasks."+t.Name()+"."+p.String(), func() (err error) {
		res, err = t.Run(p, cfg)
		return err
	})
	if err != nil {
		return outcome{}, c, fmt.Errorf("%s: %w", label, err)
	}
	var o outcome
	tr.call("relation.digest", func() error { o = newOutcome(label, res); return nil })
	return o, c, nil
}

func (m *mlMix) check(outs []outcome) error {
	if len(outs) != 6 {
		return fmt.Errorf("ml-mix: %d outcomes, want 6", len(outs))
	}
	// runAll's order: each task under script, then workflow.
	gs, gw, ks, kw, ws, ww := outs[0], outs[1], outs[2], outs[3], outs[4], outs[5]
	if err := samePair(gs, gw); err != nil {
		return err
	}
	if err := samePair(ws, ww); err != nil {
		return err
	}
	for _, o := range []outcome{ks, kw} {
		if err := m.kgeOracle.check(o); err != nil {
			return err
		}
	}
	for _, o := range []outcome{gs, gw} {
		em, f1 := o.res.Quality["exact_match"], o.res.Quality["f1"]
		if em < 0.8 || f1 < em {
			return fmt.Errorf("%s: exact_match %.4f, f1 %.4f: want exact_match >= 0.8 and f1 >= exact_match", o.label, em, f1)
		}
	}
	for _, o := range []outcome{ws, ww} {
		if f1 := o.res.Quality["macro_f1"]; f1 < 0.6 {
			return fmt.Errorf("%s: macro_f1 %.4f, want >= 0.6", o.label, f1)
		}
	}
	return nil
}

// iterateSteps is the dice-iterate edit script: a cold run, an edit to
// each of three stages in turn, then an unedited re-run.
var iterateSteps = []string{"", "split", "parse", "write", ""}

// diceIterate is the edit-and-rerun loop over DICE at
// diceIteratePairs, both paradigms against one artifact store per
// iteration.
type diceIterate struct {
	task   *dice.Task
	cfg    core.RunConfig
	oracle oracle
}

func newDiceIterate(seed uint64) (instance, error) {
	cfg, err := core.NewRunConfig(core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	task, err := dice.New(dice.Params{Pairs: diceIteratePairs, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &diceIterate{task: task, cfg: cfg}, nil
}

func (d *diceIterate) prepare() error {
	var err error
	d.oracle, err = diceOracle(d.task.Cases())
	return err
}

func (d *diceIterate) iterate() ([]outcome, error) { return d.runSteps(nil) }

func (d *diceIterate) traced(tr tracer) ([]outcome, error) { return d.runSteps(tr) }

// runSteps runs the edit script from a cold store. With a tracer it
// times each run by paradigm and by step class (cold, edit, hit) and
// sums what the store reports.
func (d *diceIterate) runSteps(tr tracer) ([]outcome, error) {
	store, err := lineage.NewStore(d.cfg.Model, 0)
	if err != nil {
		return nil, err
	}
	cfg := d.cfg
	cfg.Lineage = store
	revs := map[string]int{}
	var outs []outcome
	for step, stage := range iterateSteps {
		if stage != "" {
			revs[stage]++
		}
		d.task.SetEdits(revs)
		for _, p := range []core.Paradigm{core.Script, core.Workflow} {
			o, c, err := runTask(tr, fmt.Sprintf("dice/%s/step%d", p, step), d.task, p, cfg)
			if err != nil {
				return outs, err
			}
			outs = append(outs, o)
			if tr != nil {
				tr.add("lineage."+stepClass(step)+"_ms", c.ms)
				tr.add("lineage.reused_units", float64(o.res.Lineage.Reused))
				tr.add("lineage.hit_bytes", float64(o.res.Lineage.HitBytes))
				tr.add("lineage.commit_bytes", float64(o.res.Lineage.CommitBytes))
			}
		}
	}
	return outs, nil
}

// stepClass names what a dice-iterate step asks of the store.
func stepClass(step int) string {
	switch {
	case step == 0:
		return "cold"
	case iterateSteps[step] == "":
		return "hit"
	default:
		return "edit"
	}
}

func (d *diceIterate) check(outs []outcome) error {
	if len(outs) != 2*len(iterateSteps) {
		return fmt.Errorf("dice-iterate: %d outcomes, want %d", len(outs), 2*len(iterateSteps))
	}
	for i, o := range outs {
		if err := d.oracle.check(o); err != nil {
			return err
		}
		if err := checkReuse(o, stepClass(i/2)); err != nil {
			return err
		}
	}
	return nil
}

// diceOracle digests dice.Oracle's records, the expected output every
// DICE run must reproduce.
func diceOracle(cases []datagen.ClinicalCase) (oracle, error) {
	recs, err := dice.Oracle(cases)
	if err != nil {
		return oracle{}, err
	}
	out := dice.RecordsToTable(recs)
	return oracle{digest: relation.Digest(out), rows: out.Len()}, nil
}
