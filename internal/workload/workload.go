// Package workload implements the communication environments of the
// paper's simulation study — random point-to-point traffic, overlapping
// group communication, and client/server request chains — plus two extra
// environments (ring and burst) used by the ablation experiments.
package workload

import (
	"fmt"

	"github.com/rdt-go/rdt/internal/sim"
)

// Random is the random communication environment: every process sends
// messages to uniformly chosen peers, with exponentially distributed gaps.
type Random struct {
	// MeanGap is the mean time between two sends of one process.
	MeanGap float64
}

var _ sim.Workload = (*Random)(nil)

// Name implements sim.Workload.
func (w *Random) Name() string { return "random" }

// Start implements sim.Workload.
func (w *Random) Start(e *sim.Engine) {
	for i := 0; i < e.N(); i++ {
		w.scheduleNext(e, i)
	}
}

// OnDeliver implements sim.Workload.
func (w *Random) OnDeliver(*sim.Engine, sim.Delivery) {}

func (w *Random) scheduleNext(e *sim.Engine, proc int) {
	e.Wake(e.Exp(w.MeanGap), proc, 0)
}

// OnWake implements sim.Workload: proc's next send is due.
func (w *Random) OnWake(e *sim.Engine, proc, _ int) {
	if !e.Active() {
		return
	}
	e.Send(proc, otherProc(e, proc), nil)
	w.scheduleNext(e, proc)
}

// otherProc draws a process other than proc uniformly.
func otherProc(e *sim.Engine, proc int) int {
	dest := e.Rand().Intn(e.N() - 1)
	if dest >= proc {
		dest++
	}
	return dest
}

// Groups is the overlapping group communication environment: processes are
// organized in groups that share members; most traffic stays within a
// process's groups.
type Groups struct {
	// GroupSize is the number of processes per group.
	GroupSize int
	// Overlap is how many processes consecutive groups share.
	Overlap int
	// IntraBias is the probability that a send targets a peer sharing a
	// group with the sender.
	IntraBias float64
	// MeanGap is the mean time between two sends of one process.
	MeanGap float64

	peers [][]int
}

var _ sim.Workload = (*Groups)(nil)

// Name implements sim.Workload.
func (w *Groups) Name() string { return "groups" }

// Start implements sim.Workload.
func (w *Groups) Start(e *sim.Engine) {
	w.peers = groupPeers(e.N(), w.GroupSize, w.Overlap)
	for i := 0; i < e.N(); i++ {
		w.scheduleNext(e, i)
	}
}

// OnDeliver implements sim.Workload.
func (w *Groups) OnDeliver(*sim.Engine, sim.Delivery) {}

func (w *Groups) scheduleNext(e *sim.Engine, proc int) {
	e.Wake(e.Exp(w.MeanGap), proc, 0)
}

// OnWake implements sim.Workload: proc's next send is due.
func (w *Groups) OnWake(e *sim.Engine, proc, _ int) {
	if !e.Active() {
		return
	}
	var dest int
	peers := w.peers[proc]
	if len(peers) > 0 && e.Rand().Float64() < w.IntraBias {
		dest = peers[e.Rand().Intn(len(peers))]
	} else {
		dest = otherProc(e, proc)
	}
	e.Send(proc, dest, nil)
	w.scheduleNext(e, proc)
}

// groupPeers computes, for each process, the distinct other processes that
// share at least one group with it. Groups of the given size start every
// (size - overlap) processes and wrap around, so every process belongs to
// at least one group and consecutive groups overlap.
func groupPeers(n, size, overlap int) [][]int {
	if size < 2 {
		size = 2
	}
	if overlap < 0 {
		overlap = 0
	}
	if overlap >= size {
		overlap = size - 1
	}
	stride := size - overlap
	inGroup := make([]map[int]bool, n)
	for i := range inGroup {
		inGroup[i] = make(map[int]bool)
	}
	for start := 0; start < n; start += stride {
		for a := 0; a < size; a++ {
			for b := 0; b < size; b++ {
				pa, pb := (start+a)%n, (start+b)%n
				if pa != pb {
					inGroup[pa][pb] = true
				}
			}
		}
	}
	peers := make([][]int, n)
	for i := range peers {
		for p := 0; p < n; p++ {
			if inGroup[i][p] {
				peers[i] = append(peers[i], p)
			}
		}
	}
	return peers
}

// msgKind distinguishes client/server payloads.
type msgKind int

const (
	msgRequest msgKind = iota + 1
	msgReply
)

// ClientServer is the client/server environment of the paper: process 0 is
// the client, processes 1..n-1 form a server chain. The client sends a
// request to S1; a server that receives a request either replies to its
// requester or, with probability Forward, forwards the request up the
// chain and waits; replies cascade back down to the client, which thinks
// and then issues the next request. The causal past of any message
// contains the whole computation, which maximizes what the protocols can
// learn from piggybacks.
type ClientServer struct {
	// Forward is the probability a server forwards a request instead of
	// replying (the last server always replies).
	Forward float64
	// Think is the client's mean think time between a reply and the next
	// request.
	Think float64
	// Service is a server's mean service time before it forwards or
	// replies.
	Service float64
}

var _ sim.Workload = (*ClientServer)(nil)

// Name implements sim.Workload.
func (w *ClientServer) Name() string { return "client-server" }

// The wake-ups of the client/server environment.
const (
	wakeFirstRequest = iota // the client's first request
	wakeRequest             // the client's next request, unless the run is over
	wakeServe               // a server has served a request: forward or reply
	wakeReply               // a server passes a reply down the chain
)

// Start implements sim.Workload.
func (w *ClientServer) Start(e *sim.Engine) {
	e.Wake(e.Exp(w.Think), 0, wakeFirstRequest)
}

// OnDeliver implements sim.Workload.
func (w *ClientServer) OnDeliver(e *sim.Engine, d sim.Delivery) {
	kind, ok := d.Payload.(msgKind)
	if !ok {
		return
	}
	switch kind {
	case msgRequest:
		e.Wake(e.Exp(w.Service), d.To, wakeServe)
	case msgReply:
		if d.To == 0 {
			// The client got its answer; think, then ask again.
			if e.Active() {
				e.Wake(e.Exp(w.Think), 0, wakeRequest)
			}
			return
		}
		e.Wake(e.Exp(w.Service), d.To, wakeReply)
	}
}

// OnWake implements sim.Workload.
func (w *ClientServer) OnWake(e *sim.Engine, proc, tag int) {
	switch tag {
	case wakeRequest:
		if !e.Active() {
			return
		}
		fallthrough
	case wakeFirstRequest:
		e.Send(0, 1, msgRequest)
	case wakeServe:
		if proc < e.N()-1 && e.Rand().Float64() < w.Forward {
			e.Send(proc, proc+1, msgRequest)
			return
		}
		e.Send(proc, proc-1, msgReply)
	case wakeReply:
		e.Send(proc, proc-1, msgReply)
	}
}

// Ring is an extension environment: every process periodically sends to
// its successor on a ring, producing long cyclic dependency chains.
type Ring struct {
	// MeanGap is the mean time between two sends of one process.
	MeanGap float64
}

var _ sim.Workload = (*Ring)(nil)

// Name implements sim.Workload.
func (w *Ring) Name() string { return "ring" }

// Start implements sim.Workload.
func (w *Ring) Start(e *sim.Engine) {
	for i := 0; i < e.N(); i++ {
		w.scheduleNext(e, i)
	}
}

// OnDeliver implements sim.Workload.
func (w *Ring) OnDeliver(*sim.Engine, sim.Delivery) {}

func (w *Ring) scheduleNext(e *sim.Engine, proc int) {
	e.Wake(e.Exp(w.MeanGap), proc, 0)
}

// OnWake implements sim.Workload: proc's next send is due.
func (w *Ring) OnWake(e *sim.Engine, proc, _ int) {
	if !e.Active() {
		return
	}
	e.Send(proc, (proc+1)%e.N(), nil)
	w.scheduleNext(e, proc)
}

// Burst is an extension environment: processes alternate quiet phases with
// bursts of back-to-back sends to random peers, stressing the sent_to
// tracking of condition C1.
type Burst struct {
	// MeanQuiet is the mean gap between bursts of one process.
	MeanQuiet float64
	// BurstLen is the number of messages per burst.
	BurstLen int
}

var _ sim.Workload = (*Burst)(nil)

// Name implements sim.Workload.
func (w *Burst) Name() string { return "burst" }

// Start implements sim.Workload.
func (w *Burst) Start(e *sim.Engine) {
	for i := 0; i < e.N(); i++ {
		w.scheduleNext(e, i)
	}
}

// OnDeliver implements sim.Workload.
func (w *Burst) OnDeliver(*sim.Engine, sim.Delivery) {}

func (w *Burst) scheduleNext(e *sim.Engine, proc int) {
	e.Wake(e.Exp(w.MeanQuiet), proc, 0)
}

// OnWake implements sim.Workload: proc's next burst is due.
func (w *Burst) OnWake(e *sim.Engine, proc, _ int) {
	if !e.Active() {
		return
	}
	for b := 0; b < w.BurstLen; b++ {
		e.Send(proc, otherProc(e, proc), nil)
	}
	w.scheduleNext(e, proc)
}

// ByName constructs the named environment with its default parameters; it
// is the registry used by the CLI tools.
func ByName(name string) (sim.Workload, error) {
	switch name {
	case "random":
		return &Random{MeanGap: 1}, nil
	case "groups":
		return &Groups{GroupSize: 3, Overlap: 1, IntraBias: 0.9, MeanGap: 1}, nil
	case "client-server":
		return &ClientServer{Forward: 0.5, Think: 1, Service: 0.2}, nil
	case "ring":
		return &Ring{MeanGap: 1}, nil
	case "burst":
		return &Burst{MeanQuiet: 4, BurstLen: 4}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// Names lists the registered environments.
func Names() []string {
	return []string{"random", "groups", "client-server", "ring", "burst"}
}
