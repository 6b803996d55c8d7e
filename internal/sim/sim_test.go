package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/trace"
)

// pingpong is a minimal in-package workload for engine unit tests: a
// wake-up's tag is the peer to send to.
type pingpong struct{ gap float64 }

func (w *pingpong) Name() string { return "pingpong" }
func (w *pingpong) Start(e *Engine) {
	e.Wake(w.gap, 0, 1)
}
func (w *pingpong) OnWake(e *Engine, proc, peer int) {
	e.Send(proc, peer, "ping")
}
func (w *pingpong) OnDeliver(e *Engine, d Delivery) {
	if !e.Active() {
		return
	}
	e.Wake(w.gap, d.To, d.From)
}

// wakeLog records the tags of its wake-ups in the order they run.
type wakeLog struct{ tags []int }

func (w *wakeLog) Name() string                 { return "wakelog" }
func (w *wakeLog) Start(*Engine)                {}
func (w *wakeLog) OnDeliver(*Engine, Delivery)  {}
func (w *wakeLog) OnWake(_ *Engine, _, tag int) { w.tags = append(w.tags, tag) }

func shortConfig(k core.Kind, seed int64) Config {
	cfg := DefaultConfig(k, seed)
	cfg.N = 4
	cfg.Duration = 120
	return cfg
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(*Config)
	}{
		{"too few processes", func(c *Config) { c.N = 1 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"zero basic mean", func(c *Config) { c.BasicMean = 0 }},
		{"negative delay", func(c *Config) { c.DelayMin = -1 }},
		{"inverted delays", func(c *Config) { c.DelayMin = 2; c.DelayMax = 1 }},
		{"unknown protocol", func(c *Config) { c.Protocol = core.Kind(99) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(core.KindBHMR, 1)
			tt.corrupt(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("corrupted config accepted")
			}
		})
	}
	cfg := DefaultConfig(core.KindBHMR, 1)
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRunProducesValidAnnotatedPattern(t *testing.T) {
	res, err := Run(shortConfig(core.KindBHMR, 7), &pingpong{gap: 0.5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	p := res.Pattern
	if err := p.Validate(); err != nil {
		t.Fatalf("pattern invalid: %v", err)
	}
	if len(p.Messages) == 0 {
		t.Fatal("no messages exchanged")
	}
	if res.Stats.Basic == 0 {
		t.Fatal("no basic checkpoints taken")
	}
	// All non-initial checkpoints carry dependency vectors.
	for i := 0; i < p.N; i++ {
		for x := 1; x < len(p.Checkpoints[i]); x++ {
			ck := &p.Checkpoints[i][x]
			if ck.Kind != model.KindFinal && ck.TDV == nil {
				t.Fatalf("checkpoint %v lacks a TDV", ck.ID())
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	render := func() []byte {
		res, err := Run(shortConfig(core.KindBHMR, 42), &pingpong{gap: 0.3})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var buf bytes.Buffer
		if err := trace.Save(&buf, res.Pattern); err != nil {
			t.Fatalf("save: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("two runs with the same seed produced different patterns")
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	a, err := Run(shortConfig(core.KindBHMR, 1), &pingpong{gap: 0.3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := Run(shortConfig(core.KindBHMR, 2), &pingpong{gap: 0.3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Stats == b.Stats && len(a.Pattern.Messages) == len(b.Pattern.Messages) {
		// Equality of full stats across different seeds would be
		// suspicious for a randomized run of this length.
		t.Error("different seeds produced identical statistics")
	}
}

// TestQuietProcessesSkipBasicCheckpoints: a basic-checkpoint attempt is
// skipped when its process had no event since its last checkpoint, so a
// run without traffic takes none.
func TestQuietProcessesSkipBasicCheckpoints(t *testing.T) {
	quiet := &pingpong{gap: 1e9} // effectively no traffic
	res, err := Run(shortConfig(core.KindBHMR, 5), quiet)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.Basic != 0 {
		t.Errorf("quiet run still took %d basic checkpoints", res.Stats.Basic)
	}
}

func TestMonitorHookSeesEveryArrival(t *testing.T) {
	cfg := shortConfig(core.KindBHMR, 9)
	arrivals := 0
	cfg.Monitor = func(inst core.Instance, from int, pb core.Piggyback) {
		arrivals++
		if pb.TDV == nil {
			t.Error("monitor saw a piggyback without TDV")
		}
		if inst == nil || from < 0 || from >= cfg.N {
			t.Error("monitor arguments malformed")
		}
	}
	res, err := Run(cfg, &pingpong{gap: 0.5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if arrivals != len(res.Pattern.Messages) {
		t.Errorf("monitor saw %d arrivals, pattern has %d messages", arrivals, len(res.Pattern.Messages))
	}
}

// selfSender sends one message from process 0 to itself.
type selfSender struct{}

func (selfSender) Name() string                { return "self" }
func (selfSender) Start(e *Engine)             { e.Send(0, 0, nil) }
func (selfSender) OnWake(*Engine, int, int)    {}
func (selfSender) OnDeliver(*Engine, Delivery) {}

// TestRecordRefusesSelfSend: a message from a process to itself fails
// the recording, so no replay, counting or building, ever sees one.
func TestRecordRefusesSelfSend(t *testing.T) {
	if s, err := Record(shortConfig(core.KindBHMR, 1), selfSender{}); err == nil {
		s.Release()
		t.Fatal("recorded a self-send")
	}
}

func TestWireBytesReported(t *testing.T) {
	res, err := Run(shortConfig(core.KindFDAS, 3), &pingpong{gap: 0.5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.WireBytesPerMessage != 4*res.Pattern.N {
		t.Errorf("wire bytes = %d, want %d", res.WireBytesPerMessage, 4*res.Pattern.N)
	}
}

func TestEngineDistributions(t *testing.T) {
	cfg := shortConfig(core.KindNone, 11)
	e := &Engine{cfg: cfg}
	e.rng = newTestRand(11)
	for i := 0; i < 1000; i++ {
		u := e.Uniform(2, 5)
		if u < 2 || u >= 5 {
			t.Fatalf("uniform sample %v out of range", u)
		}
		x := e.Exp(3)
		if x < 0 {
			t.Fatalf("exponential sample %v negative", x)
		}
	}
}

// newTestRand builds the engine's random source for distribution tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestEngineEventOrdering: events scheduled for the same instant run in
// insertion order; earlier times run first regardless of insertion order.
func TestEngineEventOrdering(t *testing.T) {
	cfg := shortConfig(core.KindNone, 1)
	log := &wakeLog{}
	e := &Engine{cfg: cfg, rng: newTestRand(1), w: log}
	e.Wake(2.0, 0, 3)
	e.Wake(1.0, 0, 1)
	e.Wake(1.0, 0, 2) // same instant, later insertion
	e.loop()
	if got := log.tags; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", got)
	}
	if e.Now() != 2.0 {
		t.Errorf("clock = %v, want 2", e.Now())
	}
}

// TestBasicCheckpointSpread: basic checkpoints respect the configured mean
// roughly (loose bound — the run is stochastic but seeded). Both
// processes of a ping-pong have events in every interval, so no attempt
// is skipped.
func TestBasicCheckpointSpread(t *testing.T) {
	cfg := shortConfig(core.KindNone, 12)
	cfg.N = 2
	cfg.Duration = 400
	cfg.BasicMean = 10
	res, err := Run(cfg, &pingpong{gap: 0.4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	perProc := float64(res.Stats.Basic) / float64(cfg.N)
	expect := cfg.Duration / cfg.BasicMean
	if perProc < expect*0.6 || perProc > expect*1.4 {
		t.Errorf("basic checkpoints per process = %.1f, expected about %.1f", perProc, expect)
	}
}

// TestAllProtocolsRunAllKinds is a sweep smoke test: every protocol
// terminates and produces a valid annotated pattern under the in-package
// workload.
func TestAllProtocolsRunAllKinds(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			res, err := Run(shortConfig(kind, 33), &pingpong{gap: 0.4})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := res.Pattern.Validate(); err != nil {
				t.Fatalf("invalid pattern: %v", err)
			}
			if err := rgraph.VerifyRecordedTDVs(res.Pattern); err != nil {
				t.Fatalf("TDVs: %v", err)
			}
		})
	}
}

func TestEngineAccessors(t *testing.T) {
	cfg := shortConfig(core.KindNone, 2)
	e := &Engine{cfg: cfg, rng: newTestRand(2)}
	if e.N() != cfg.N {
		t.Errorf("N = %d", e.N())
	}
	if e.Rand() == nil {
		t.Error("nil rng")
	}
}

// TestForcedCheckpointAllocs: with a registry attached, recording a forced
// checkpoint allocates nothing. The builder copies the record's vector
// into a chunk that holds many, and the per-predicate count is a tally of
// the replay's own, added to the series once, when the replay flushes:
// no series key is formatted and looked up per checkpoint, and the
// series advance by the whole tally at the flush, not before.
func TestForcedCheckpointAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := shortConfig(core.KindCBR, 3)
	cfg.Obs = reg
	if _, err := Run(cfg, &pingpong{gap: 0.5}); err != nil {
		t.Fatal(err)
	}
	var predicates []string
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "rdt_forced_checkpoints_total" {
			predicates = append(predicates, m.Labels[1]) // sorted: predicate, protocol
		}
	}
	if len(predicates) == 0 {
		t.Fatal("the CBR run forced no checkpoint")
	}
	series := func(pred string) int64 {
		return reg.Snapshot().CounterValue("rdt_forced_checkpoints_total", "protocol", "cbr", "predicate", pred)
	}
	forced := func() int64 {
		return reg.Snapshot().CounterValue("rdt_checkpoints_total", "kind", "forced", "protocol", "cbr")
	}
	before := map[string]int64{}
	for _, pred := range predicates {
		before[pred] = series(pred)
	}
	forcedBefore := forced()
	r := &replay{builder: model.NewBuilder(cfg.N), events: make([]int, cfg.N), obs: newReplayObs(reg, nil, cfg.Protocol)}
	const runs = 1000
	for _, pred := range predicates {
		rec := core.CheckpointRecord{Proc: 1, Kind: model.KindForced, TDV: make([]int, cfg.N), Predicate: pred}
		// AllocsPerRun averages over its runs, so the occasional growth of
		// the builder's checkpoint list and its vector chunks rounds away.
		if allocs := testing.AllocsPerRun(runs, func() { r.sink(rec) }); allocs > 0 {
			t.Errorf("predicate %s: %.2f allocations per forced checkpoint, want 0", pred, allocs)
		}
		if after := series(pred); after != before[pred] {
			t.Errorf("predicate %s: series advanced by %d before the flush, want 0", pred, after-before[pred])
		}
	}
	r.obs.flush()
	for _, pred := range predicates {
		// AllocsPerRun makes one warm-up call before its runs.
		if got := series(pred) - before[pred]; got != runs+1 {
			t.Errorf("predicate %s: series advanced by %d, want %d", pred, got, runs+1)
		}
	}
	if got, want := forced()-forcedBefore, int64(len(predicates)*(runs+1)); got != want {
		t.Errorf("forced checkpoints advanced by %d, want %d", got, want)
	}
}
