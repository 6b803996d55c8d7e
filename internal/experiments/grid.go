package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/workload"
)

// cell identifies one simulation of the experiment grid: an environment,
// a protocol, a basic-checkpoint mean and a replication seed, plus the
// optional overrides individual experiments use. Cells are self-contained
// so the grid can hand them to any worker.
type cell struct {
	env  string
	kind core.Kind
	mean float64
	seed int64

	// duration overrides cfg.Duration when positive (Guarantees runs on a
	// reduced horizon).
	duration float64
	// delayMax, with delayMin, overrides the channel-delay window when
	// positive (the asynchrony ablation).
	delayMin, delayMax float64
	// monitor is attached to the simulation when non-nil. It is invoked
	// only from the cell's own replay, so it may mutate cell-local state
	// without synchronization.
	monitor func(inst core.Instance, from int, pb core.Piggyback)
}

// scheduleKey is what a cell's schedule depends on: cells that differ
// only in protocol (and monitor) share one simulated schedule.
type scheduleKey struct {
	env                          string
	mean                         float64
	seed                         int64
	duration, delayMin, delayMax float64
}

func (c cell) schedule() scheduleKey {
	return scheduleKey{env: c.env, mean: c.mean, seed: c.seed, duration: c.duration, delayMin: c.delayMin, delayMax: c.delayMax}
}

// record simulates the schedule a cell shares with the cells of the
// same key.
func record(cfg Config, c cell) (*sim.Schedule, error) {
	w, err := workload.ByName(c.env)
	if err != nil {
		return nil, err
	}
	sc := sim.DefaultConfig(c.kind, c.seed)
	sc.N = cfg.N
	sc.Duration = cfg.Duration
	if c.duration > 0 {
		sc.Duration = c.duration
	}
	sc.BasicMean = c.mean
	if c.delayMax > 0 {
		sc.DelayMin = c.delayMin
		sc.DelayMax = c.delayMax
	}
	sc.Obs = cfg.Obs
	return sim.Record(sc, w)
}

// bySchedule groups cell indices by schedule key. Each group lists its
// cells in index order, and the groups are ordered by their first cell.
func bySchedule(cells []cell) [][]int {
	var groups [][]int
	index := make(map[scheduleKey]int)
	for i, c := range cells {
		k := c.schedule()
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// runGrid evaluates fn on the simulation result of every cell, each
// cell's protocol replayed with sim.Schedule.Run; see replayGrid.
func runGrid[T any](cfg Config, cells []cell, fn func(i int, res *sim.Result) (T, error)) ([]T, error) {
	return replayGrid(cfg, cells, func(i int, s *sim.Schedule) (T, error) {
		res, err := s.Run(cells[i].kind, cells[i].monitor)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(i, res)
	})
}

// countGrid evaluates fn on the statistics of every cell's run, each
// cell's protocol replayed with sim.Schedule.Count, which builds no
// pattern. It serves the experiments that read only checkpoint counts,
// or their cells' monitors; see replayGrid.
func countGrid[T any](cfg Config, cells []cell, fn func(i int, st model.Stats) T) ([]T, error) {
	return replayGrid(cfg, cells, func(i int, s *sim.Schedule) (T, error) {
		st, err := s.Count(cells[i].kind, cells[i].monitor)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(i, st), nil
	})
}

// replayGrid evaluates replay on every cell across a pool of cfg.Jobs
// worker goroutines and returns the values in cell order. The unit of
// work is a schedule: a worker records it once and replays each of its
// cells' protocols over it, as soon as the previous replay's value is
// taken, so it holds one schedule and one result at a time.
//
// Determinism contract: every cell derives its seed from its own indices,
// each value is written into its pre-assigned slot, and callers aggregate
// the returned slice in a fixed order — so the output is byte-identical
// whatever the worker count, including the sequential Jobs <= 1 path.
//
// The grid-progress counter rdt_experiment_runs_total is incremented once
// per completed cell, that is per protocol run (the counter is atomic, so
// concurrent workers cannot lose updates). On error the failure with the
// lowest cell index is returned: after a failure at cell i, workers skip
// every cell above i, and still run the ones below it.
func replayGrid[T any](cfg Config, cells []cell, replay func(i int, s *sim.Schedule) (T, error)) ([]T, error) {
	out := make([]T, len(cells))
	errs := make([]error, len(cells))
	runs := cfg.Obs.Counter("rdt_experiment_runs_total")
	groups := bySchedule(cells)

	// failed is the lowest failing cell index so far, len(cells) if none.
	var failed atomic.Int64
	failed.Store(int64(len(cells)))
	fail := func(i int, err error) {
		errs[i] = err
		for {
			cur := failed.Load()
			if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	work := func(group []int) {
		if int64(group[0]) >= failed.Load() {
			return
		}
		s, err := record(cfg, cells[group[0]])
		if err != nil {
			fail(group[0], err)
			return
		}
		defer s.Release()
		for _, i := range group {
			if int64(i) >= failed.Load() {
				return
			}
			v, err := replay(i, s)
			if err != nil {
				fail(i, err)
				return
			}
			out[i] = v
			runs.Inc()
		}
	}

	workers := cfg.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for _, g := range groups {
			work(g)
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					g := int(next.Add(1)) - 1
					if g >= len(groups) {
						return
					}
					work(groups[g])
				}
			}()
		}
		wg.Wait()
	}
	if i := failed.Load(); i < int64(len(cells)) {
		return nil, errs[i]
	}
	return out, nil
}

// analyzers pools rgraph analyzers so grid cells that run offline checks
// reuse replay scratch across cells without tying cells to workers.
var analyzers = sync.Pool{New: func() any { return rgraph.NewAnalyzer() }}
