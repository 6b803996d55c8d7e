package rdt_test

import (
	"testing"

	rdt "github.com/rdt-go/rdt"
)

func TestPublicProtocolRegistry(t *testing.T) {
	kinds := rdt.RDTProtocols()
	if len(kinds) != 8 || kinds[0] != rdt.BHMR {
		t.Errorf("rdt protocols = %v", kinds)
	}
	for _, k := range kinds {
		if k == rdt.None {
			t.Error("the uncoordinated baseline is listed as guaranteeing RDT")
		}
	}
}

func TestPublicSimulateAndAnalyze(t *testing.T) {
	w, err := rdt.WorkloadByName("random")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	cfg := rdt.DefaultSimConfig(rdt.BHMR, 5)
	cfg.N = 4
	cfg.Duration = 80
	res, err := rdt.Simulate(cfg, w)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	report, err := rdt.CheckRDT(res.Pattern, 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !report.RDT {
		t.Fatalf("violations: %v", report.Violations)
	}
	if err := rdt.VerifyRecordedTDVs(res.Pattern); err != nil {
		t.Fatalf("tdvs: %v", err)
	}

	// Consistency helpers over the public surface.
	target := rdt.CkptID{Proc: 1, Index: 1}
	min, err := rdt.MinConsistentGlobal(res.Pattern, target)
	if err != nil {
		t.Fatalf("min: %v", err)
	}
	max, err := rdt.MaxConsistentGlobal(res.Pattern, target)
	if err != nil {
		t.Fatalf("max: %v", err)
	}
	if !min.DominatedBy(max) {
		t.Errorf("min %v not below max %v", min, max)
	}
	ok, err := rdt.IsConsistent(res.Pattern, min)
	if err != nil || !ok {
		t.Errorf("min inconsistent: %v %v", ok, err)
	}
	line, err := rdt.TraceRecoveryLine(res.Pattern, max)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	if !line.Equal(max) {
		t.Errorf("recovery line below a consistent cut should be that cut: %v vs %v", line, max)
	}
}

func TestPublicWorkloadRegistry(t *testing.T) {
	for _, name := range []string{"random", "groups", "client-server", "ring", "burst"} {
		if _, err := rdt.WorkloadByName(name); err != nil {
			t.Errorf("workload %s: %v", name, err)
		}
	}
	if _, err := rdt.WorkloadByName("mars"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPublicPatternBuilder(t *testing.T) {
	b := rdt.NewPatternBuilder(2)
	m := b.Send(0, 1)
	b.Checkpoint(0, rdt.KindBasic, nil)
	if err := b.Deliver(m); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	b.Checkpoint(1, rdt.KindBasic, nil) // the R-graph takes closed intervals only
	p, err := b.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	g, err := rdt.BuildRGraph(p)
	if err != nil {
		t.Fatalf("rgraph: %v", err)
	}
	if !g.HasRPath(rdt.CkptID{Proc: 0, Index: 1}, rdt.CkptID{Proc: 1, Index: 1}) {
		t.Error("R-path of the message missing")
	}
}

func TestPublicClusterAndRecovery(t *testing.T) {
	store := rdt.NewMemoryStore()
	c, err := rdt.NewCluster(rdt.ClusterConfig{
		N:        3,
		Protocol: rdt.BHMR,
		Store:    store,
		Snapshot: func(proc int) []byte { return []byte{byte(proc)} },
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for i := 0; i < 6; i++ {
		if err := c.Node(i%3).Send((i+1)%3, []byte("m")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Node(1).Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	c.Quiesce()
	st, err := c.Node(1).Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Basic != 1 {
		t.Errorf("status = %+v", st)
	}
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 6 {
		t.Errorf("messages = %d", len(p.Messages))
	}

	mgr, err := rdt.NewRecoveryManager(store, 3)
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	plan, err := mgr.AfterCrash(0)
	if err != nil {
		t.Fatalf("after crash: %v", err)
	}
	if len(plan.Line) != 3 {
		t.Errorf("plan = %+v", plan)
	}
	cps, err := mgr.Restore(plan.Line)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(cps) != 3 {
		t.Errorf("restored = %d", len(cps))
	}
}

func TestPublicFileStoreAndTransports(t *testing.T) {
	fs, err := rdt.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("file store: %v", err)
	}
	if err := fs.Put(rdt.StoredCheckpoint{Proc: 0, Index: 0, TDV: []int{0, 0}}); err != nil {
		t.Fatalf("put: %v", err)
	}
	// The canonical stack: retries above the (here fault-free) injector.
	tr := rdt.Reliable(rdt.WithFaults(rdt.NewLocalTransport(0), rdt.FaultConfig{Seed: 1}), rdt.ReliableConfig{Seed: 1})
	c, err := rdt.NewCluster(rdt.ClusterConfig{N: 2, Transport: tr, Store: fs})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if err := c.Node(0).Send(1, []byte("over the stack")); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 1 {
		t.Errorf("messages = %d", len(p.Messages))
	}
}
