// Command breakpoint demonstrates the distributed-debugging application
// of the RDT property: causal distributed breakpoints. To inspect the
// system state "when process p reached checkpoint C", the debugger needs
// the minimum consistent global checkpoint containing C — the earliest
// global state that includes C and every effect C depends on. Under the
// paper's protocol that global checkpoint is read directly off the
// dependency vector recorded with C (Corollary 4.5), with no graph
// search; this program shows both the O(1) lookup and the brute-force
// verification, plus the maximum consistent global checkpoint used for
// output commit.
package main

import (
	"fmt"
	"log"

	rdt "github.com/rdt-go/rdt"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, err := rdt.WorkloadByName("groups")
	if err != nil {
		return err
	}
	cfg := rdt.DefaultSimConfig(rdt.BHMR, 4242)
	cfg.N = 6
	cfg.Duration = 250
	cfg.BasicMean = 6
	res, err := rdt.Simulate(cfg, w)
	if err != nil {
		return err
	}
	p := res.Pattern
	fmt.Printf("debuggee trace: %+v\n\n", p.Stats())

	// Place a breakpoint at the middle checkpoint of process 2.
	target := rdt.CkptID{Proc: 2, Index: len(p.Checkpoints[2]) / 2}
	ck, err := p.Checkpoint(target)
	if err != nil {
		return err
	}

	fmt.Printf("breakpoint at %v (%v checkpoint)\n", target, ck.Kind)
	fmt.Printf("on-the-fly minimum global checkpoint (recorded TDV): %v\n", ck.TDV)

	min, err := rdt.MinConsistentGlobal(p, target)
	if err != nil {
		return err
	}
	fmt.Printf("brute-force minimum over the full trace:             %v\n", min)
	fmt.Printf("Corollary 4.5 agreement: %v\n\n", min.Equal(rdt.GlobalCheckpoint(ck.TDV)))

	ok, err := rdt.IsConsistent(p, min)
	if err != nil {
		return err
	}
	fmt.Printf("breakpoint cut is a consistent global state: %v\n", ok)

	// The dual bound: the latest global state still containing the
	// breakpoint (everything past it can be committed).
	max, err := rdt.MaxConsistentGlobal(p, target)
	if err != nil {
		return err
	}
	fmt.Printf("maximum consistent global checkpoint containing it:  %v\n\n", max)

	// The debugger can restore any checkpoint pair inside [min, max]; show
	// which checkpoints of process 4 are compatible with the breakpoint.
	g, err := rdt.BuildRGraph(p)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoints of P4 that can share a consistent global state with %v:\n  ", target)
	for x := 0; x < len(p.Checkpoints[4]); x++ {
		other := rdt.CkptID{Proc: 4, Index: x}
		if g.CanExtend([]rdt.CkptID{target, other}) {
			fmt.Printf("C{4,%d} ", x)
		}
	}
	fmt.Println()
	return nil
}
