// Package experiments regenerates the evaluation of the paper: the
// forced-checkpoint overhead figures for the three communication
// environments (random, overlapping groups, client/server), the headline
// reduction-vs-FDAS table, the piggyback-size comparison of Section 5.2,
// and the extension experiments (domino effect, protocol ablation,
// minimum-consistent-global-checkpoint agreement). Both the
// cmd/rdtexperiments CLI and the repository's benchmarks drive this
// package, so figures in EXPERIMENTS.md and benchmark output come from
// the same code.
//
// Every experiment fans its (environment, protocol, mean, seed) grid
// across the worker pool of runGrid, which simulates each schedule once
// and replays every protocol of the grid over it. Cell seeds depend only
// on the cell's own coordinates and aggregation happens in a fixed order,
// so results are byte-identical for every Config.Jobs value.
package experiments

import (
	"fmt"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/stats"
)

// Config scales an experiment run.
type Config struct {
	// N is the number of processes.
	N int
	// Duration is the simulated horizon per run.
	Duration float64
	// Seeds is the number of replications averaged per data point.
	Seeds int
	// BasicMeans is the swept x-axis: mean interval between basic
	// checkpoints, in units of the mean message gap.
	BasicMeans []float64
	// Protocols are the lines of the figures.
	Protocols []core.Kind

	// Jobs is the number of worker goroutines the grid of simulations is
	// fanned across; 0 or negative means runtime.GOMAXPROCS(0). Output is
	// byte-identical for every value (see runGrid).
	Jobs int

	// Obs, if non-nil, receives the metrics of every simulation of the
	// grid (protocol-labeled) plus a grid-progress counter
	// rdt_experiment_runs_total, so a paper-scale regeneration can be
	// watched live over /metrics.
	Obs *obs.Registry
}

// Default returns the paper-scale configuration used by the CLI.
func Default() Config {
	return Config{
		N:          8,
		Duration:   1500,
		Seeds:      5,
		BasicMeans: []float64{2, 4, 8, 16, 32},
		Protocols: []core.Kind{
			core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly,
			core.KindFDAS, core.KindFDI, core.KindNRAS, core.KindCBR, core.KindCAS,
		},
	}
}

// Quick returns a reduced configuration for tests and benchmarks.
func Quick() Config {
	return Config{
		N:          6,
		Duration:   250,
		Seeds:      3,
		BasicMeans: []float64{4, 12},
		Protocols: []core.Kind{
			core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly,
			core.KindFDAS, core.KindNRAS, core.KindCAS,
		},
	}
}

// Environments lists the evaluation's communication environments, in the
// paper's order.
func Environments() []string { return []string{"random", "groups", "client-server"} }

// mid returns the midpoint of the swept basic-checkpoint means, the
// x-value the summary tables are evaluated at.
func (cfg Config) mid() float64 { return cfg.BasicMeans[len(cfg.BasicMeans)/2] }

// mean averages one aggregation group of grid results.
func mean(vals []float64) float64 { return stats.Sample(vals).Mean() }

// FigureR reproduces one "R in <environment>" figure (Figures 7–9 of the
// companion text): forced checkpoints per basic checkpoint as a function
// of the basic-checkpoint interval, one line per protocol.
func FigureR(cfg Config, env string) (*stats.Series, error) {
	cells := make([]cell, 0, len(cfg.BasicMeans)*len(cfg.Protocols)*cfg.Seeds)
	for _, mean := range cfg.BasicMeans {
		for _, kind := range cfg.Protocols {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cells = append(cells, cell{env: env, kind: kind, mean: mean, seed: int64(1000*seed + 7)})
			}
		}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (float64, error) {
		return res.Stats.ForcedPerBasic(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("figure %s: %w", env, err)
	}

	s := stats.NewSeries(
		fmt.Sprintf("R = forced/basic in the %s environment (n=%d, %d seeds)", env, cfg.N, cfg.Seeds),
		"basic-interval", "R")
	s.X = append(s.X, cfg.BasicMeans...)
	idx := 0
	for range cfg.BasicMeans {
		for _, kind := range cfg.Protocols {
			s.Add(kind.String(), mean(vals[idx:idx+cfg.Seeds]))
			idx += cfg.Seeds
		}
	}
	return s, nil
}

// ReductionVsFDAS reproduces the headline claim: the percentage of forced
// checkpoints the paper's protocol (and its variants) save with respect to
// FDAS, per environment. The paper reports the reduction is never below
// 10%.
func ReductionVsFDAS(cfg Config) (*stats.Table, error) {
	variants := []core.Kind{core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly}
	kinds := append([]core.Kind{core.KindFDAS}, variants...)
	cells := make([]cell, 0, len(Environments())*len(kinds)*cfg.Seeds)
	for _, env := range Environments() {
		for _, kind := range kinds {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cells = append(cells, cell{env: env, kind: kind, mean: cfg.mid(), seed: int64(1000*seed + 7)})
			}
		}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (float64, error) {
		return res.Stats.ForcedPerBasic(), nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("Forced-checkpoint reduction vs FDAS (%%), n=%d, %d seeds", cfg.N, cfg.Seeds),
		Header: append([]string{"environment", "fdas R"}, kindNames(variants)...),
	}
	idx := 0
	for _, env := range Environments() {
		fdas := mean(vals[idx : idx+cfg.Seeds])
		idx += cfg.Seeds
		row := []string{env, stats.Format(fdas)}
		for range variants {
			r := mean(vals[idx : idx+cfg.Seeds])
			idx += cfg.Seeds
			reduction := 0.0
			if fdas > 0 {
				reduction = 100 * (fdas - r) / fdas
			}
			row = append(row, stats.Format(reduction))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PiggybackSizes reproduces the control-information cost discussion of
// Section 5.2: bytes piggybacked per message by each protocol, as the
// system grows.
func PiggybackSizes(ns []int) (*stats.Table, error) {
	kinds := []core.Kind{
		core.KindCBR, core.KindFDAS, core.KindBHMRCausalOnly, core.KindBHMR,
	}
	t := &stats.Table{
		Title:  "Piggybacked control information (bytes/message)",
		Header: append([]string{"n"}, kindNames(kinds)...),
	}
	for _, n := range ns {
		row := []string{fmt.Sprintf("%d", n)}
		for _, kind := range kinds {
			inst, err := core.New(kind, 0, n, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", inst.WireSize()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Domino quantifies the motivation experiment: total checkpoint intervals
// lost when process 0 crashes at the end of the run, with and without
// communication-induced checkpointing.
func Domino(cfg Config) (*stats.Table, error) {
	kinds := []core.Kind{core.KindNone, core.KindBHMR, core.KindFDAS}
	cells := make([]cell, 0, len(Environments())*len(kinds)*cfg.Seeds)
	for _, env := range Environments() {
		for _, kind := range kinds {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cells = append(cells, cell{env: env, kind: kind, mean: cfg.mid(), seed: int64(500*seed + 3)})
			}
		}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (float64, error) {
		plan, err := crashPlan(res.Pattern)
		if err != nil {
			return 0, err
		}
		return float64(plan.TotalRollback()), nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("Total rollback depth after a crash of P0 (n=%d, %d seeds)", cfg.N, cfg.Seeds),
		Header: append([]string{"environment"}, kindNames(kinds)...),
	}
	idx := 0
	for _, env := range Environments() {
		row := []string{env}
		for range kinds {
			row = append(row, stats.Format(mean(vals[idx:idx+cfg.Seeds])))
			idx += cfg.Seeds
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Ablation compares the three members of the BHMR family, isolating the
// value of the simple vector (full vs variant A) and of the causal
// diagonal (variant A vs variant B), reported as forced checkpoints per
// message.
func Ablation(cfg Config) (*stats.Table, error) {
	kinds := []core.Kind{core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly}
	cells := make([]cell, 0, len(Environments())*len(kinds)*cfg.Seeds)
	for _, env := range Environments() {
		for _, kind := range kinds {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cells = append(cells, cell{env: env, kind: kind, mean: cfg.mid(), seed: int64(300*seed + 11)})
			}
		}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (float64, error) {
		return res.Stats.ForcedPerMessage(), nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("BHMR family ablation: forced checkpoints per message (n=%d, %d seeds)", cfg.N, cfg.Seeds),
		Header: append([]string{"environment"}, kindNames(kinds)...),
	}
	idx := 0
	for _, env := range Environments() {
		row := []string{env}
		for range kinds {
			row = append(row, stats.Format(mean(vals[idx:idx+cfg.Seeds])))
			idx += cfg.Seeds
		}
		t.AddRow(row...)
	}
	return t, nil
}

// MinGlobalAgreement verifies Corollary 4.5 on fresh runs and reports the
// number of checkpoints whose on-the-fly annotation matches the
// brute-force minimum consistent global checkpoint (it must be all of
// them).
func MinGlobalAgreement(cfg Config) (*stats.Table, error) {
	type counts struct{ total, agree int }
	envs := Environments()
	cells := make([]cell, len(envs))
	for i, env := range envs {
		cells[i] = cell{env: env, kind: core.KindBHMR, mean: cfg.mid(), seed: 77}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (counts, error) {
		total, agree, err := MinGlobalCheck(res.Pattern)
		return counts{total: total, agree: agree}, err
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  "Corollary 4.5: on-the-fly TDV vs brute-force minimum consistent global checkpoint",
		Header: []string{"environment", "checkpoints", "agreeing"},
	}
	for i, env := range envs {
		t.AddRow(env, fmt.Sprintf("%d", vals[i].total), fmt.Sprintf("%d", vals[i].agree))
	}
	return t, nil
}

// MinGlobalCheck counts the annotated checkpoints of a pattern and how
// many have a dependency vector equal to the brute-force minimum
// consistent global checkpoint containing them, a fixpoint over messages.
func MinGlobalCheck(p *model.Pattern) (total, agree int, err error) {
	err = rgraph.MinConsistentSweep(p, func(c model.CkptID, min model.GlobalCheckpoint) error {
		tdv := p.Checkpoints[c.Proc][c.Index].TDV
		switch {
		case tdv == nil:
			return nil
		case min == nil:
			return fmt.Errorf("%w: raising P%d past pinned checkpoint", rgraph.ErrNoConsistentGlobal, c.Proc)
		case min.Equal(model.GlobalCheckpoint(tdv)):
			agree++
		}
		total++
		return nil
	})
	return total, agree, err
}

// crashPlan computes the recovery plan for a crash of process 0 from the
// vectors recorded with the pattern's checkpoints: each process restarts
// from its latest checkpoint that has one (a final checkpoint may not),
// and a checkpoint recorded without a vector counts as depending on
// nothing.
func crashPlan(p *model.Pattern) (*recovery.Plan, error) {
	bounds := make(model.GlobalCheckpoint, p.N)
	for i, cks := range p.Checkpoints {
		bounds[i] = len(cks) - 1
		if last := &cks[len(cks)-1]; last.Kind == model.KindFinal && last.TDV == nil {
			bounds[i]--
		}
	}
	zero := make([]int, p.N)
	return recovery.Line(bounds, func(proc, index int) ([]int, error) {
		if tdv := p.Checkpoints[proc][index].TDV; tdv != nil {
			return tdv, nil
		}
		return zero, nil
	})
}

func kindNames(kinds []core.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// DelaySensitivity is an extension experiment: channel asynchrony
// ablation. It measures how sensitive the forced-checkpoint ratio is to
// the transmission-delay spread (wider spreads reorder messages more),
// reporting R for the paper's protocol and FDAS in the random environment
// as the maximum delay grows (the mean send gap is 1).
func DelaySensitivity(cfg Config) (*stats.Series, error) {
	delays := []float64{0.2, 1, 3, 8}
	kinds := []core.Kind{core.KindBHMR, core.KindFDAS}
	cells := make([]cell, 0, len(delays)*len(kinds)*cfg.Seeds)
	for _, d := range delays {
		for _, kind := range kinds {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cells = append(cells, cell{
					env: "random", kind: kind, mean: cfg.mid(), seed: int64(900*seed + 13),
					delayMin: 0.05, delayMax: d,
				})
			}
		}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (float64, error) {
		return res.Stats.ForcedPerBasic(), nil
	})
	if err != nil {
		return nil, err
	}

	s := stats.NewSeries(
		fmt.Sprintf("Asynchrony ablation: R vs max channel delay (random, n=%d, %d seeds)", cfg.N, cfg.Seeds),
		"max-delay", "R")
	s.X = append(s.X, delays...)
	idx := 0
	for range delays {
		for _, kind := range kinds {
			s.Add(kind.String(), mean(vals[idx:idx+cfg.Seeds]))
			idx += cfg.Seeds
		}
	}
	return s, nil
}

// conditionEvaluator is implemented by the full BHMR instance.
type conditionEvaluator interface {
	Evaluate(core.Piggyback) core.Predicates
}

// ConditionAttribution is an extension experiment quantifying the paper's
// centerpiece: of the arrivals where the protocol forces a checkpoint, how
// many are due to C1 (a breakable non-causal chain without a visible
// sibling), how many to C2 (a non-simple causal chain closing on its own
// interval) — and how many arrivals FDAS would have broken although
// C1 ∨ C2 proves no checkpoint is needed (the "saved" column).
func ConditionAttribution(cfg Config) (*stats.Table, error) {
	type attribution struct{ arrivals, c1, c2, c2Only, saved int }
	envs := Environments()
	cells := make([]cell, 0, len(envs)*cfg.Seeds)
	for _, env := range envs {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cells = append(cells, cell{env: env, kind: core.KindBHMR, mean: cfg.mid(), seed: int64(700*seed + 29)})
		}
	}
	// Each monitor mutates its own cell's counters; a replay is
	// single-threaded, so no synchronization is needed.
	atts := make([]attribution, len(cells))
	for i := range cells {
		att := &atts[i]
		cells[i].monitor = func(inst core.Instance, _ int, pb core.Piggyback) {
			ev, ok := inst.(conditionEvaluator)
			if !ok {
				return
			}
			pred := ev.Evaluate(pb)
			att.arrivals++
			if pred.C1 {
				att.c1++
			}
			if pred.C2 {
				att.c2++
			}
			if pred.C2 && !pred.C1 {
				att.c2Only++
			}
			if pred.FDAS && !pred.C1 && !pred.C2 {
				att.saved++
			}
		}
	}
	vals, err := runGrid(cfg, cells, func(i int, _ *sim.Result) (attribution, error) {
		return atts[i], nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("BHMR condition attribution per arrival (n=%d, %d seeds)", cfg.N, cfg.Seeds),
		Header: []string{"environment", "arrivals", "c1", "c2", "c2-only", "saved-vs-fdas"},
	}
	idx := 0
	for _, env := range envs {
		var sum attribution
		for s := 0; s < cfg.Seeds; s++ {
			v := vals[idx]
			idx++
			sum.arrivals += v.arrivals
			sum.c1 += v.c1
			sum.c2 += v.c2
			sum.c2Only += v.c2Only
			sum.saved += v.saved
		}
		t.AddRow(env,
			fmt.Sprintf("%d", sum.arrivals), fmt.Sprintf("%d", sum.c1), fmt.Sprintf("%d", sum.c2),
			fmt.Sprintf("%d", sum.c2Only), fmt.Sprintf("%d", sum.saved))
	}
	return t, nil
}

// Guarantees is an extension experiment summarizing the guarantee
// spectrum on identical workloads: forced checkpoints per message, whether
// the run satisfies RDT, and how many checkpoints are useless (belong to
// no consistent global checkpoint), for the uncoordinated baseline, the
// index-based BCS protocol (Z-cycle freedom only), the paper's protocol
// and FDAS, from one R-graph per run. It runs on a fifth of the horizon
// only because its CSV is a golden.
func Guarantees(cfg Config) (*stats.Table, error) {
	type outcome struct {
		forced       float64
		rdt          bool
		trackable    float64
		hasTrackable bool
		useless      int
	}
	kinds := []core.Kind{core.KindNone, core.KindBCS, core.KindBHMR, core.KindFDAS}
	cells := make([]cell, 0, len(kinds)*cfg.Seeds)
	for _, kind := range kinds {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cells = append(cells, cell{
				env: "random", kind: kind, mean: cfg.mid(), seed: int64(800*seed + 17),
				duration: cfg.Duration / 5,
			})
		}
	}
	vals, err := runGrid(cfg, cells, func(_ int, res *sim.Result) (outcome, error) {
		out := outcome{forced: res.Stats.ForcedPerMessage()}
		p := res.Pattern
		g, err := rgraph.Build(p)
		if err != nil {
			return outcome{}, err
		}
		a := analyzers.Get().(*rgraph.Analyzer)
		tdvs, err := a.ComputeTDVs(p)
		analyzers.Put(a)
		if err != nil {
			return outcome{}, err
		}
		rep := rgraph.CheckRDTGraph(g, tdvs, 1)
		out.rdt = rep.RDT
		if rep.RPathPairs > 0 {
			out.trackable = 100 * float64(rep.TrackablePairs) / float64(rep.RPathPairs)
			out.hasTrackable = true
		}
		for i := 0; i < p.N; i++ {
			for x := range p.Checkpoints[i] {
				if g.Useless(model.CkptID{Proc: model.ProcID(i), Index: x}) {
					out.useless++
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("Guarantee spectrum in the random environment (n=%d)", cfg.N),
		Header: []string{"protocol", "forced/msg", "rdt", "trackable-%", "useless-ckpts", "guarantee"},
	}
	guarantee := map[core.Kind]string{
		core.KindNone: "none",
		core.KindBCS:  "no useless checkpoints",
		core.KindBHMR: "RDT",
		core.KindFDAS: "RDT",
	}
	idx := 0
	for _, kind := range kinds {
		var (
			forced    stats.Sample
			trackable stats.Sample
			rdtOK     = true
			useless   int
		)
		for s := 0; s < cfg.Seeds; s++ {
			v := vals[idx]
			idx++
			forced = append(forced, v.forced)
			rdtOK = rdtOK && v.rdt
			if v.hasTrackable {
				trackable = append(trackable, v.trackable)
			}
			useless += v.useless
		}
		t.AddRow(kind.String(), stats.Format(forced.Mean()),
			fmt.Sprintf("%v", rdtOK), stats.Format(trackable.Mean()),
			fmt.Sprintf("%d", useless), guarantee[kind])
	}
	return t, nil
}
