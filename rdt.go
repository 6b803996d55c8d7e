package rdt

// The facade re-exports exactly the names a program outside cmd/ uses
// (examples/ and example_test.go); TestFacadeIsUsed fails on an
// unreferenced one. Results whose types are not re-exported (reports,
// builders, chains, stores) are used through inference. The binaries
// under cmd/ import internal/ directly.

import (
	"time"

	"github.com/rdt-go/rdt/internal/cluster"
	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/explore"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/transport"
	"github.com/rdt-go/rdt/internal/workload"
)

// Protocol selects a communication-induced checkpointing protocol.
type Protocol = core.Kind

const (
	// None takes only basic checkpoints (uncoordinated baseline).
	None = core.KindNone
	// BHMR is the paper's protocol: condition C1 ∨ C2 with full causal
	// sibling tracking — the least conservative of the family.
	BHMR = core.KindBHMR
)

// RDTProtocols returns the protocols that guarantee the RDT property,
// least conservative first: BHMR and its two published variants, FDAS,
// FDI, NRAS, CBR and CAS.
func RDTProtocols() []Protocol { return core.RDTKinds() }

// Model types: checkpoint and communication patterns and their elements.
type (
	// Pattern is a recorded checkpoint and communication pattern.
	Pattern = model.Pattern
	// CkptID names a local checkpoint C_{proc,index}.
	CkptID = model.CkptID
	// GlobalCheckpoint holds one checkpoint index per process.
	GlobalCheckpoint = model.GlobalCheckpoint
)

// KindBasic marks a checkpoint the application took on its own.
const KindBasic = model.KindBasic

// NewPatternBuilder returns a builder for hand-constructing patterns.
func NewPatternBuilder(n int) *model.Builder { return model.NewBuilder(n) }

// Figure1 returns the reference pattern of Figure 1 of the paper.
func Figure1() (*Pattern, error) { return trace.Figure1() }

// BuildRGraph builds the rollback-dependency graph of a pattern, with its
// reachability: R-paths, useless checkpoints and Netzer–Xu extensibility.
func BuildRGraph(p *Pattern) (*rgraph.Graph, error) { return rgraph.Build(p) }

// CheckRDT verifies the Rollback-Dependency Trackability property of a
// pattern, reporting up to maxViolations untrackable R-paths (<= 0 for a
// default cap).
func CheckRDT(p *Pattern, maxViolations int) (*rgraph.Report, error) {
	return rgraph.CheckRDT(p, maxViolations)
}

// VerifyRecordedTDVs checks the dependency vectors recorded with the
// pattern's checkpoints against an offline recomputation.
func VerifyRecordedTDVs(p *Pattern) error { return rgraph.VerifyRecordedTDVs(p) }

// IsConsistent reports whether a global checkpoint has no orphan message.
func IsConsistent(p *Pattern, g GlobalCheckpoint) (bool, error) { return rgraph.IsConsistent(p, g) }

// MinConsistentGlobal returns the minimum consistent global checkpoint
// containing all the given checkpoints. Under RDT, for a single
// checkpoint, it equals the dependency vector recorded with it
// (Corollary 4.5).
func MinConsistentGlobal(p *Pattern, set ...CkptID) (GlobalCheckpoint, error) {
	return rgraph.MinConsistentContaining(p, set...)
}

// MaxConsistentGlobal returns the maximum consistent global checkpoint
// containing all the given checkpoints.
func MaxConsistentGlobal(p *Pattern, set ...CkptID) (GlobalCheckpoint, error) {
	return rgraph.MaxConsistentContaining(p, set...)
}

// TraceRecoveryLine computes, from the full trace, the maximum consistent
// global checkpoint dominated by the given per-process bounds.
func TraceRecoveryLine(p *Pattern, bounds GlobalCheckpoint) (GlobalCheckpoint, error) {
	return rgraph.RecoveryLine(p, bounds)
}

// Runtime types: the goroutine-per-process cluster.
type (
	// Cluster runs N protocol-equipped processes.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a cluster.
	ClusterConfig = cluster.Config
	// Node is the handle of one cluster process.
	Node = cluster.Node
	// RecoverOptions parameterizes Cluster.Recover.
	RecoverOptions = cluster.RecoverOptions
	// RecoverResult reports what one Cluster.Recover did.
	RecoverResult = cluster.RecoverResult
	// SupervisorConfig parameterizes Supervise.
	SupervisorConfig = cluster.SupervisorConfig
)

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Resume starts the next incarnation after a rollback: a fresh cluster
// into which the in-transit messages of the previous incarnation (see
// ReplaySet) are replayed from the message log. The application must
// have reinstalled the recovery line's state snapshots first.
// Cluster.Recover packages the whole crash → line → restore → Resume
// sequence.
func Resume(cfg ClusterConfig, replay []recovery.ReplayMessage) (*Cluster, error) {
	return cluster.Resume(cfg, replay)
}

// Supervise attaches a heartbeat failure detector and autonomous
// recovery driver to a running cluster (which must log payloads). After
// a failover, the supervisor's Cluster method returns the live
// incarnation.
func Supervise(c *Cluster, cfg SupervisorConfig) (*cluster.Supervisor, error) {
	return cluster.Supervise(c, cfg)
}

// Transport types: how frames move between cluster processes, and the
// decorators for testing and surviving lossy links. The canonical
// stacking is
//
//	rdt.Reliable(rdt.WithFaults(inner, faultCfg), reliableCfg)
//
// — retries above the faults they repair; the cluster adds its
// observability decorator outermost.
type (
	// Transport moves frames between processes.
	Transport = transport.Transport
	// FaultConfig parameterizes WithFaults.
	FaultConfig = transport.FaultConfig
	// FaultProbs is one link's (or the default) fault mix.
	FaultProbs = transport.FaultProbs
	// ReliableConfig parameterizes Reliable.
	ReliableConfig = transport.ReliableConfig
)

// NewLocalTransport returns an in-process transport; maxDelay > 0 adds a
// random delivery delay.
func NewLocalTransport(maxDelay time.Duration) Transport { return transport.NewLocal(maxDelay) }

// WithFaults wraps a transport with the seeded injector of drop,
// duplicate, reorder and send-error faults and pair-wise partitions.
func WithFaults(inner Transport, cfg FaultConfig) *transport.Faulty {
	return transport.WithFaults(inner, cfg)
}

// Reliable wraps an unreliable transport with retransmission,
// acknowledgements and receiver-side deduplication, restoring
// exactly-once delivery.
func Reliable(inner Transport, cfg ReliableConfig) *transport.ReliableTransport {
	return transport.Reliable(inner, cfg)
}

// StoredCheckpoint is one persisted checkpoint.
type StoredCheckpoint = storage.Checkpoint

// NewMemoryStore returns an in-memory checkpoint store.
func NewMemoryStore() storage.Store { return storage.NewMemory() }

// NewFileStore returns a file-backed checkpoint store rooted at dir.
func NewFileStore(dir string) (storage.Store, error) { return storage.NewFile(dir) }

// NewRecoveryManager creates a recovery manager, which computes recovery
// lines for n processes over a checkpoint store.
func NewRecoveryManager(store storage.Store, n int) (*recovery.Manager, error) {
	return recovery.NewManager(store, n)
}

// ReplaySet computes the in-transit messages at a recovery line, with
// payloads from the message log (for example Cluster.Payload).
func ReplaySet(p *Pattern, line GlobalCheckpoint, payload func(id int) ([]byte, bool)) ([]recovery.ReplayMessage, error) {
	return recovery.ReplaySet(p, line, payload)
}

// DefaultSimConfig returns the baseline parameters of the deterministic
// discrete-event simulator.
func DefaultSimConfig(p Protocol, seed int64) sim.Config { return sim.DefaultConfig(p, seed) }

// Simulate executes one deterministic simulation.
func Simulate(cfg sim.Config, w sim.Workload) (*sim.Result, error) { return sim.Run(cfg, w) }

// WorkloadByName constructs one of the named communication environments
// ("random", "groups", "client-server", "ring", "burst").
func WorkloadByName(name string) (sim.Workload, error) { return workload.ByName(name) }

// Exhaustive exploration: verify protocol properties over every
// interleaving of a small scripted scenario (model checking in miniature).
type (
	// ScenarioOp is one scripted action of an exploration scenario.
	ScenarioOp = explore.Op
	// ScheduleChoice is one step of an explored schedule's tape.
	ScheduleChoice = sim.Op
)

// ScenarioSend returns a scripted send to the given process.
func ScenarioSend(to int) ScenarioOp { return explore.Send(to) }

// ScenarioCheckpoint returns a scripted basic-checkpoint attempt. As in
// the simulator, it is skipped when the process had no send or delivery
// since its last checkpoint.
func ScenarioCheckpoint() ScenarioOp { return explore.Checkpoint() }

// Explore enumerates every interleaving of the per-process scripts with
// every admissible delivery order, replays the protocol over each, and
// calls check on every complete execution.
func Explore(p Protocol, scripts [][]ScenarioOp, check func(schedule []ScheduleChoice, pattern *Pattern) error) (*explore.Result, error) {
	return explore.Run(p, scripts, check)
}

// Observability: a metrics registry plugged into ClusterConfig.Obs (or
// the simulator's config) collects counters, gauges and histograms from
// every layer; an event tracer records typed events (sends, deliveries,
// checkpoints with the predicate that forced them, rollbacks) in a
// bounded ring. ServeObs exposes both over HTTP.

// DefaultEventCapacity is the tracer ring size the cmd tools use.
const DefaultEventCapacity = obs.DefaultTracerCapacity

// NewMetricsRegistry returns an empty metrics registry. A nil registry
// disables instrumentation at near-zero cost.
func NewMetricsRegistry() *obs.Registry { return obs.NewRegistry() }

// NewEventTracer returns a tracer retaining the last capacity events.
func NewEventTracer(capacity int) *obs.Tracer { return obs.NewTracer(capacity) }

// ServeObs starts an HTTP introspection server on addr (":0" picks an
// ephemeral port; see the server's Addr method) with /metrics
// (Prometheus text format), /debug/events (JSON tail) and /debug/vars
// (expvar). Either argument may be nil.
func ServeObs(addr string, reg *obs.Registry, tr *obs.Tracer) (*obs.Server, error) {
	return obs.Serve(addr, reg, tr, false)
}
