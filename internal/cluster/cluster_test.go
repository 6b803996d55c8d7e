package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/transport"
)

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{N: 1}); err == nil {
		t.Error("accepted single-process cluster")
	}
}

func TestClusterBasicExchange(t *testing.T) {
	var mu sync.Mutex
	delivered := make(map[int]int)
	c, err := New(Config{
		N:        3,
		Protocol: core.KindBHMR,
		Handler: func(n *Node, from int, payload []byte) {
			mu.Lock()
			delivered[n.Proc()]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Node(0).Send(1, []byte("hello")); err != nil {
			t.Fatalf("send: %v", err)
		}
		if err := c.Node(1).Send(2, []byte("world")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Node(2).Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	c.Quiesce()
	mu.Lock()
	got1, got2 := delivered[1], delivered[2]
	mu.Unlock()
	if got1 != 10 || got2 != 10 {
		t.Errorf("deliveries = (%d,%d), want (10,10)", got1, got2)
	}
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 20 {
		t.Errorf("messages = %d, want 20", len(p.Messages))
	}
	if err := p.Validate(); err != nil {
		t.Errorf("pattern invalid: %v", err)
	}
}

// echoApp replies to every "ping" with a "pong", exercising handler
// cascades and quiescence.
func echoApp(n *Node, from int, payload []byte) {
	if string(payload) == "ping" {
		// Errors can only be ErrStopped during shutdown; drop then.
		_ = n.Send(from, []byte("pong"))
	}
}

func TestClusterHandlerCascadesAndQuiesce(t *testing.T) {
	c, err := New(Config{N: 2, Protocol: core.KindBHMR, Handler: echoApp})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	const pings = 25
	for i := 0; i < pings; i++ {
		if err := c.Node(0).Send(1, []byte("ping")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 2*pings {
		t.Errorf("messages = %d, want %d", len(p.Messages), 2*pings)
	}
}

func TestClusterRunsAreRDT(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBHMR, core.KindBHMRNoSimple, core.KindFDAS, core.KindCAS} {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := New(Config{N: 4, Protocol: kind, Handler: echoApp})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			for round := 0; round < 15; round++ {
				for proc := 0; proc < 4; proc++ {
					dest := (proc + 1 + round%3) % 4
					if err := c.Node(proc).Send(dest, []byte("ping")); err != nil {
						t.Fatalf("send: %v", err)
					}
				}
				if round%3 == 0 {
					if err := c.Node(round % 4).Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			c.Quiesce()
			p, err := c.Stop()
			if err != nil {
				t.Fatalf("stop: %v", err)
			}
			rep, err := rgraph.CheckRDT(p, 4)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if !rep.RDT {
				t.Fatalf("cluster run violated RDT: %v", rep.Violations)
			}
			if err := rgraph.VerifyRecordedTDVs(p); err != nil {
				t.Fatalf("TDVs: %v", err)
			}
		})
	}
}

func TestClusterStoresCheckpoints(t *testing.T) {
	store := storage.NewMemory()
	c, err := New(Config{
		N:        2,
		Protocol: core.KindBHMR,
		Store:    store,
		Snapshot: func(proc int) []byte { return []byte(fmt.Sprintf("state-%d", proc)) },
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Node(0).Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	c.Quiesce()
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	// Initial checkpoints of both processes plus P0's basic one.
	cp, err := store.Get(0, 1)
	if err != nil {
		t.Fatalf("stored checkpoint missing: %v", err)
	}
	if string(cp.State) != "state-0" || cp.Kind != model.KindBasic {
		t.Errorf("stored checkpoint = %+v", cp)
	}
	if _, err := store.Get(1, 0); err != nil {
		t.Errorf("initial checkpoint of P1 not stored: %v", err)
	}
	if c.Store() != store {
		t.Error("Store() does not return the configured store")
	}
}

func TestClusterStatus(t *testing.T) {
	c, err := New(Config{N: 2, Protocol: core.KindBHMR})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Node(0).Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st, err := c.Node(0).Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Proc != 0 || st.Interval != 2 || st.Basic != 1 || st.Forced != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.TDV[0] != 2 {
		t.Errorf("TDV = %v", st.TDV)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestClusterRejectsBadSends(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer c.Stop() //nolint:errcheck // cleanup
	if err := c.Node(0).Send(0, nil); err == nil {
		t.Error("self-send accepted")
	}
	if err := c.Node(0).Send(7, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
}

func TestClusterStopSemantics(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Node(0).Send(1, []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := c.Stop(); !errors.Is(err, ErrStopped) {
		t.Errorf("second stop: %v, want ErrStopped", err)
	}
	if err := c.Node(0).Send(1, nil); !errors.Is(err, ErrStopped) {
		t.Errorf("send after stop: %v, want ErrStopped", err)
	}
	if err := c.Node(0).Checkpoint(); !errors.Is(err, ErrStopped) {
		t.Errorf("checkpoint after stop: %v, want ErrStopped", err)
	}
	if _, err := c.Node(0).Status(); !errors.Is(err, ErrStopped) {
		t.Errorf("status after stop: %v, want ErrStopped", err)
	}
}

func TestClusterConcurrentDrivers(t *testing.T) {
	c, err := New(Config{N: 4, Protocol: core.KindBHMR, Handler: echoApp})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var wg sync.WaitGroup
	for proc := 0; proc < 4; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				dest := (proc + 1 + i) % 4
				if dest == proc {
					dest = (dest + 1) % 4
				}
				if err := c.Node(proc).Send(dest, []byte("ping")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if i%5 == 0 {
					if err := c.Node(proc).Checkpoint(); err != nil {
						t.Errorf("checkpoint: %v", err)
						return
					}
				}
			}
		}(proc)
	}
	wg.Wait()
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("pattern invalid: %v", err)
	}
	rep, err := rgraph.CheckRDT(p, 4)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.RDT {
		t.Fatalf("concurrent cluster run violated RDT: %v", rep.Violations)
	}
	if err := rgraph.VerifyRecordedTDVs(p); err != nil {
		t.Fatalf("TDVs: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	inst, err := core.New(core.KindBHMR, 0, 3, nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	pb, _ := inst.OnSend(1)
	data, err := encodeMsg(0, 42, []byte("payload"), pb)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	from, handle, payload, got, err := decodeMsg(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if from != 0 || handle != 42 || string(payload) != "payload" {
		t.Errorf("header = (%d,%d,%q)", from, handle, payload)
	}
	if !got.TDV.Equal(pb.TDV) {
		t.Errorf("TDV = %v, want %v", got.TDV, pb.TDV)
	}
	if got.Simple == nil || !got.Simple[0] {
		t.Errorf("simple = %v", got.Simple)
	}
	if got.Causal == nil || !got.Causal.Equal(pb.Causal) {
		t.Error("causal matrix did not survive the round trip")
	}
	if _, _, _, _, err := decodeMsg([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestCodecWithoutOptionalFields(t *testing.T) {
	inst, err := core.New(core.KindFDAS, 0, 3, nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	pb, _ := inst.OnSend(1)
	data, err := encodeMsg(0, 1, nil, pb)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	_, _, _, got, err := decodeMsg(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Simple != nil && len(got.Simple) != 0 {
		t.Errorf("simple = %v, want empty", got.Simple)
	}
	if got.Causal != nil {
		t.Error("causal matrix materialized from nothing")
	}
}

func TestLocalTransportDelayDoesNotBreakQuiesce(t *testing.T) {
	c, err := New(Config{
		N:         2,
		Transport: transport.NewLocal(5 * time.Millisecond),
		Handler:   echoApp,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Node(0).Send(1, []byte("ping")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 10 {
		t.Errorf("messages = %d, want 10", len(p.Messages))
	}
}

func TestClusterPayloadLog(t *testing.T) {
	c, err := New(Config{N: 2, Protocol: core.KindBHMR, LogPayloads: true})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Node(0).Send(1, []byte("logged")); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 1 {
		t.Fatalf("messages = %d", len(p.Messages))
	}
	payload, ok := c.Payload(p.Messages[0].ID)
	if !ok || string(payload) != "logged" {
		t.Errorf("payload = %q, %v", payload, ok)
	}
	payload[0] = 'X'
	again, _ := c.Payload(p.Messages[0].ID)
	if string(again) != "logged" {
		t.Error("Payload returned an aliased slice")
	}
	if _, ok := c.Payload(999); ok {
		t.Error("unknown id produced a payload")
	}
}

func TestClusterPayloadLogDisabled(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Node(0).Send(1, []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Quiesce()
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, ok := c.Payload(0); ok {
		t.Error("payload logged although logging is off")
	}
}

// TestClusterSixteenNodes is a scale smoke test: a 16-process cluster
// under the full protocol stays RDT and quiesces cleanly.
func TestClusterSixteenNodes(t *testing.T) {
	const n = 16
	c, err := New(Config{N: n, Protocol: core.KindBHMR, Handler: echoApp})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for round := 0; round < 8; round++ {
		for proc := 0; proc < n; proc++ {
			if err := c.Node(proc).Send((proc+round+1)%n, []byte("ping")); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		if err := c.Node(round).Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	c.Quiesce()
	p, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(p.Messages) != 2*8*n {
		t.Errorf("messages = %d, want %d", len(p.Messages), 2*8*n)
	}
	rep, err := rgraph.CheckRDT(p, 2)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.RDT {
		t.Fatalf("16-node run violated RDT: %v", rep.Violations)
	}
}

// TestClusterBCSSequenceNumbersTravel verifies the BCS piggyback survives
// the wire codec end to end: a node far ahead in checkpoints forces its
// peers on first contact.
func TestClusterBCSSequenceNumbersTravel(t *testing.T) {
	c, err := New(Config{N: 2, Protocol: core.KindBCS})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Node(0).Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	if err := c.Node(0).Send(1, []byte("from the future")); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Quiesce()
	st, err := c.Node(1).Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Forced != 1 {
		t.Errorf("P1 forced = %d, want 1 (sequence number must cross the codec)", st.Forced)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestClusterMetrics(t *testing.T) {
	c, err := New(Config{N: 2, Protocol: core.KindFDAS})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Node(0).Send(1, []byte("x")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Node(1).Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	c.Quiesce()
	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Sent != 5 || m.Basic != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.PiggybackBytes != 5*4*2 {
		t.Errorf("piggyback bytes = %d, want 40", m.PiggybackBytes)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := c.Metrics(); err == nil {
		t.Error("metrics available after stop")
	}
}
