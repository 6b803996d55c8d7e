// Package rdt is a library for Rollback-Dependency Trackability (RDT) in
// message-passing systems: communication-induced checkpointing protocols
// that guarantee every rollback dependency between local checkpoints is
// on-line trackable with transitive dependency vectors, together with the
// analyses that property unlocks — minimum/maximum consistent global
// checkpoints, recovery lines, zigzag-path detection — and the
// infrastructure to run them: a goroutine-per-process runtime with
// pluggable transports, persistent checkpoint stores, a deterministic
// discrete-event simulator, and an experiment harness reproducing the
// paper's evaluation.
//
// # Background
//
// Processes that checkpoint independently risk hidden, non-causal
// dependencies (zigzag paths) between their checkpoints; such checkpoints
// may belong to no consistent global checkpoint at all, and recovery can
// collapse in a domino effect. A checkpoint and communication pattern has
// the RDT property when every rollback dependency (every path of its
// R-graph) is witnessed by a *causal* message chain — then a simple
// dependency vector tracks all dependencies on-line, any set of mutually
// non-causally-related checkpoints extends to a consistent global
// checkpoint, and the minimum consistent global checkpoint containing a
// checkpoint is exactly the vector recorded with it.
//
// RDT cannot be observed locally, so protocols enforce *visible*
// conditions: predicates evaluated when a message arrives, forcing an
// additional local checkpoint before delivery when they hold. This
// package implements the full hierarchy of published conditions — the
// paper's protocol (BHMR, condition C1 ∨ C2) and its two variants, Wang's
// FDAS and FDI, Russell's no-receive-after-send, checkpoint-before-
// receive, and Wu–Fuchs checkpoint-after-send — behind one interface,
// plus an uncoordinated baseline for comparison.
//
// # Quick start
//
// Run an application on the concurrent runtime with the BHMR protocol:
//
//	c, err := rdt.NewCluster(rdt.ClusterConfig{
//		N:        4,
//		Protocol: rdt.BHMR,
//		Handler: func(n *rdt.Node, from int, payload []byte) {
//			// deliveries arrive here, in the process's goroutine
//		},
//	})
//	// send messages and take basic checkpoints...
//	_ = c.Node(0).Send(1, []byte("work"))
//	_ = c.Node(2).Checkpoint()
//	c.Quiesce()
//	pattern, err := c.Stop()
//
//	report, err := rdt.CheckRDT(pattern, 0) // offline certification
//
// See the examples directory for complete programs: a quickstart, a
// client/server request chain, failure recovery with rollback lines, a
// replicated key-value store, and causal distributed breakpoints.
//
// # Surface
//
// This package is the front door for programs: it re-exports the names
// those examples use and nothing else (a test fails on an exported name
// no example references). Values of types it does not name — reports,
// builders, stores, supervisors — are used through inference. The
// command-line tools and daemons under cmd/ import the internal packages
// directly.
package rdt
