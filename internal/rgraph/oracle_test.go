package rgraph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/rdt-go/rdt/internal/model"
)

// searchReach is how close found its sources before the reach counters:
// a binary search over process k's chain for the first node whose
// column-j entry lies past j's pending node, which by the first
// monotonicity invariant is the count of k's nodes that reach j.
func searchReach(inc *Incremental, k, j int) int {
	col := inc.ids[k]
	return sort.Search(len(col), func(x int) bool {
		return inc.minReach[int(col[x])*inc.n+j] > int32(inc.nextIndex[j])
	})
}

// checkReach holds every reach counter to searchReach.
func checkReach(inc *Incremental) error {
	for k := 0; k < inc.n; k++ {
		for j := 0; j < inc.n; j++ {
			if got, want := int(inc.reach[k*inc.n+j]), searchReach(inc, k, j); got != want {
				return fmt.Errorf("reach[%d*n+%d] = %d, the search over minReach finds %d", k, j, got, want)
			}
		}
	}
	return nil
}

// reportOracle is Report as it was before the forward pointers: each
// range's trackable cut found by a binary search of the target's chain
// (second invariant), O(V·n·log V).
func reportOracle(inc *Incremental, maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	rep := &Report{RDT: true}
	last := make([]int, inc.n)
	for j := range last {
		last[j] = inc.nextIndex[j] - 1
		if inc.events[j] > 0 {
			last[j]++
		}
	}
	for k, col := range inc.ids {
		for x := 0; x <= last[k]; x++ {
			for j, m := range inc.minReach[int(col[x])*inc.n:][:inc.n] {
				lo := int(m)
				if lo > last[j] {
					continue
				}
				cut := lo + sort.Search(last[j]+1-lo, func(d int) bool { return inc.vectorAt(j, lo+d)[k] >= x })
				rep.RPathPairs += last[j] + 1 - lo
				rep.TrackablePairs += last[j] + 1 - cut
				if cut > lo {
					rep.RDT = false
				}
				for y := lo; y < cut && len(rep.Violations) < maxViolations; y++ {
					rep.Violations = append(rep.Violations, Violation{
						From: model.CkptID{Proc: model.ProcID(k), Index: x},
						To:   model.CkptID{Proc: model.ProcID(j), Index: y},
					})
				}
			}
		}
	}
	return rep
}

// diffReports says how got differs from want: verdict, pair counts, or
// the violation list, element by element.
func diffReports(want, got *Report) error {
	if want.RDT != got.RDT {
		return fmt.Errorf("verdict mismatch: want RDT=%v, got RDT=%v", want.RDT, got.RDT)
	}
	if want.RPathPairs != got.RPathPairs || want.TrackablePairs != got.TrackablePairs {
		return fmt.Errorf("pair counts mismatch: want %d/%d, got %d/%d",
			want.TrackablePairs, want.RPathPairs, got.TrackablePairs, got.RPathPairs)
	}
	if len(want.Violations) != len(got.Violations) {
		return fmt.Errorf("violation list length mismatch: want %v, got %v", want.Violations, got.Violations)
	}
	for i := range want.Violations {
		if want.Violations[i] != got.Violations[i] {
			return fmt.Errorf("violation %d mismatch: want %v, got %v", i, want.Violations[i], got.Violations[i])
		}
	}
	return nil
}

// checkReportOracle holds Report to reportOracle, capped and uncapped.
func checkReportOracle(inc *Incremental) error {
	for _, limit := range []int{0, 32, math.MaxInt} {
		if err := diffReports(reportOracle(inc, limit), inc.Report(limit)); err != nil {
			return fmt.Errorf("Report(%d) against the binary-search report: %w", limit, err)
		}
	}
	return nil
}

// checkDecoded rebuilds inc from its bytes and holds the copy's reach
// counters and reports to inc's.
func checkDecoded(inc *Incremental) error {
	dec, err := DecodeIncremental(inc.AppendBinary(nil))
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if err := checkReach(dec); err != nil {
		return fmt.Errorf("decoded checker: %w", err)
	}
	for _, limit := range []int{32, math.MaxInt} {
		if err := diffReports(inc.Report(limit), dec.Report(limit)); err != nil {
			return fmt.Errorf("decoded checker's Report(%d): %w", limit, err)
		}
	}
	return nil
}

// closureOracle is the closure Incremental kept before the interval
// vectors: one growable bitset per node over all nodes, restored under
// edge insertions by a worklist through the predecessor lists. It knows
// nothing about chains or suffixes, which is what makes it a reference
// for minReach. It follows a checker by copying the edges that appeared
// in its predecessor lists since the last sync.
type closureOracle struct {
	reach []dynbits // reach[u] = nodes reachable from u by a path of length >= 1
	preds [][]int32

	work []int32
	// wordMerges counts the 64-bit words merge has or-ed: the unit of
	// work whose growth per event the interval vectors removed.
	wordMerges int
}

// sync inserts every edge inc has gained since the previous call.
func (o *closureOracle) sync(inc *Incremental) {
	for len(o.preds) < len(inc.preds) {
		o.preds = append(o.preds, nil)
		o.reach = append(o.reach, nil)
	}
	for v, ps := range inc.preds {
		for _, u := range ps[len(o.preds[v]):] {
			o.addEdge(u, int32(v))
		}
	}
}

func (o *closureOracle) addEdge(u, v int32) {
	o.preds[v] = append(o.preds[v], u)
	if !o.grow(u, v) {
		return
	}
	work := append(o.work[:0], u)
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range o.preds[w] {
			if o.grow(p, w) {
				work = append(work, p)
			}
		}
	}
	o.work = work
}

func (o *closureOracle) grow(p, v int32) bool {
	o.wordMerges += len(o.reach[v])
	return o.reach[p].merge(o.reach[v], v)
}

// check compares the checker's interval vectors with the bitset rows —
// every row must be, per process, exactly the suffix minReach names —
// and asserts that each column is non-decreasing along each chain.
func (o *closureOracle) check(inc *Incremental) error {
	n := inc.n
	if len(inc.minReach) != len(inc.nodeProc)*n {
		return fmt.Errorf("minReach has %d entries for %d nodes of %d processes", len(inc.minReach), len(inc.nodeProc), n)
	}
	for u := range inc.nodeProc {
		row := inc.minReach[u*n:][:n]
		for j, col := range inc.ids {
			for y, b := range col {
				if got, want := o.reach[u].get(b), int32(y) >= row[j]; got != want {
					return fmt.Errorf("C{%d,%d} -> C{%d,%d}: oracle says %v, minReach[%d] = %d",
						inc.nodeProc[u], inc.nodeIndex[u], j, y, got, j, row[j])
				}
			}
			if row[j] != noReach && int(row[j]) >= len(col) {
				return fmt.Errorf("C{%d,%d}: minReach[%d] = %d names no node", inc.nodeProc[u], inc.nodeIndex[u], j, row[j])
			}
		}
	}
	for k, col := range inc.ids {
		for x := 1; x < len(col); x++ {
			for j := 0; j < n; j++ {
				if prev, next := inc.minReach[int(col[x-1])*n+j], inc.minReach[int(col[x])*n+j]; prev > next {
					return fmt.Errorf("column %d decreases along chain %d: C{%d,%d} has %d, C{%d,%d} has %d",
						j, k, k, x-1, prev, k, x, next)
				}
			}
		}
	}
	return nil
}

// dynbits is a growable bitset keyed by node id.
type dynbits []uint64

func (d dynbits) get(i int32) bool {
	w := int(i >> 6)
	return w < len(d) && d[w]&(1<<(uint(i)&63)) != 0
}

// merge ors src and the single bit v into d and reports whether d
// changed.
func (d *dynbits) merge(src dynbits, v int32) bool {
	for need := max(len(src), int(v>>6)+1); len(*d) < need; {
		*d = append(*d, 0)
	}
	dd := *d
	changed := false
	for w, word := range src {
		if word&^dd[w] != 0 {
			dd[w] |= word
			changed = true
		}
	}
	if w, bit := int(v>>6), uint64(1)<<(uint(v)&63); dd[w]&bit == 0 {
		dd[w] |= bit
		changed = true
	}
	return changed
}

// minConsistentOracle is the least fixpoint MinConsistentContaining ran
// before the worklist: rounds over every message, raising the sender's
// entry of each orphan, until a round changes nothing. Knowing nothing of
// delivery order or of the other checkpoints of the pinned process is
// what makes it a reference for minFixpoint and MinConsistentSweep.
func minConsistentOracle(p *model.Pattern, set ...model.CkptID) (model.GlobalCheckpoint, error) {
	pinned, g, err := pinSet(p, set)
	if err != nil {
		return nil, err
	}
	for changed := true; changed; {
		changed = false
		for i := range p.Messages {
			m := &p.Messages[i]
			if m.DeliverInterval <= g[m.To] && m.SendInterval > g[m.From] {
				if pinned[m.From] && m.SendInterval > pinnedIndex(set, m.From) {
					return nil, fmt.Errorf("%w: raising P%d past pinned checkpoint", ErrNoConsistentGlobal, m.From)
				}
				g[m.From] = m.SendInterval
				changed = true
			}
		}
	}
	return g, nil
}

func pinnedIndex(set []model.CkptID, proc model.ProcID) int {
	for _, c := range set {
		if c.Proc == proc {
			return c.Index
		}
	}
	return -1
}

// prepareBySort is prepare as it was before the interval layout: every
// event of a process in one list, sorted by seq.
func prepareBySort(p *model.Pattern) [][]event {
	type timed struct {
		seq int
		e   event
	}
	lists := make([][]timed, p.N)
	for i, cs := range p.Checkpoints {
		for x := range cs {
			lists[i] = append(lists[i], timed{cs[x].Seq, event{kind: evCheckpoint, at: int32(x)}})
		}
	}
	for k := range p.Messages {
		m := &p.Messages[k]
		lists[m.From] = append(lists[m.From], timed{m.SendSeq, event{kind: evSend, at: int32(k)}})
		lists[m.To] = append(lists[m.To], timed{m.DeliverSeq, event{kind: evDeliver, at: int32(k)}})
	}
	out := make([][]event, p.N)
	for i, l := range lists {
		slices.SortFunc(l, func(a, b timed) int { return cmp.Compare(a.seq, b.seq) })
		for _, t := range l {
			out[i] = append(out[i], t.e)
		}
	}
	return out
}

// reachRows is the R-graph's reachability as Build kept it before the
// reach vectors: closure's reflexive bitset rows over g.adj, with the
// diagonal bit cleared on every node no successor reaches back (a node
// on no cycle, alone in its component, so its row is not shared).
func reachRows(g *Graph) []bitset {
	rows := closure(g.adj)
	for v, succ := range g.adj {
		if !slices.ContainsFunc(succ, func(w int) bool { return rows[w].get(v) }) {
			rows[v].clear(v)
		}
	}
	return rows
}

// checkRDTPairs is checkRDT as it was before the word scan: every
// ordered checkpoint pair, one reach bit and one TDV entry each, C²
// steps in (i, x, j, y) order.
func checkRDTPairs(g *Graph, rows []bitset, tdvs *TDVTable, maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	p := g.Pattern()
	rep := &Report{RDT: true}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			a := model.CkptID{Proc: model.ProcID(i), Index: x}
			for j := 0; j < p.N; j++ {
				for y := range p.Checkpoints[j] {
					b := model.CkptID{Proc: model.ProcID(j), Index: y}
					if !rows[g.id(a.Proc, x)].get(g.id(b.Proc, y)) {
						continue
					}
					rep.RPathPairs++
					if tdvs.Trackable(a, b) {
						rep.TrackablePairs++
						continue
					}
					rep.RDT = false
					if len(rep.Violations) < maxViolations {
						rep.Violations = append(rep.Violations, Violation{From: a, To: b})
					}
				}
			}
		}
	}
	return rep
}

// checkRDTWords is checkRDT as it was before the pointer walk: it scans
// the closure rows a word at a time. C_{i,x} -> b is untrackable iff
// TDV_b[i] < x, so for a fixed source process i the untrackable targets
// of C_{i,x} are the nodes whose entry i is below x: a set U that only
// grows with x. The nodes are bucketed by entry i once per process; for
// x = 0, 1, ... the row of C_{i,x} is and-ed with U, and then bucket x
// joins U. Node ids run in (process, index) order, so the set bits of
// row & U are the violations in the (i, x, j, y) order of a pair-by-pair
// enumeration.
func checkRDTWords(g *Graph, rows []bitset, tdvs *TDVTable, maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	p := g.Pattern()
	rep := &Report{RDT: true}
	longest := 0
	for i := 0; i < p.N; i++ {
		longest = max(longest, len(p.Checkpoints[i]))
	}
	// order holds every node id sorted by entry i of its TDV (a counting
	// sort); bucket x is order[bucket[x]:bucket[x+1]]. Entry i of a
	// vector is 0, the node's own index on process i, or an interval in
	// which i sent a message, and Build refuses sends in the open
	// interval, so it is below i's checkpoint count.
	order := make([]int, g.nodes)
	arena := make([]int, longest+2)
	untracked := newBitset(g.nodes)
	untrackable := 0
	for i := 0; i < p.N; i++ {
		sources := len(p.Checkpoints[i])
		bucket := arena[:sources+2]
		clear(bucket)
		for v := range g.nodes {
			bucket[tdvs.At(g.ckpt(v))[i]+2]++
		}
		for x := 2; x < len(bucket); x++ {
			bucket[x] += bucket[x-1]
		}
		for v := range g.nodes {
			e := tdvs.At(g.ckpt(v))[i]
			order[bucket[e+1]] = v
			bucket[e+1]++
		}
		clear(untracked)
		for x := 0; x < sources; x++ {
			from := model.CkptID{Proc: model.ProcID(i), Index: x}
			for w, row := range rows[g.offset[i]+x] {
				if row == 0 {
					continue
				}
				rep.RPathPairs += bits.OnesCount64(row)
				bad := row & untracked[w]
				if bad == 0 {
					continue
				}
				rep.RDT = false
				untrackable += bits.OnesCount64(bad)
				for ; bad != 0 && len(rep.Violations) < maxViolations; bad &= bad - 1 {
					to := g.ckpt(w<<6 + bits.TrailingZeros64(bad))
					rep.Violations = append(rep.Violations, Violation{From: from, To: to})
				}
			}
			for _, b := range order[bucket[x]:bucket[x+1]] {
				untracked.set(b)
			}
		}
	}
	rep.TrackablePairs = rep.RPathPairs - untrackable
	return rep
}

// checkRDTOracle holds checkRDT to checkRDTPairs and checkRDTWords, both
// on the bitset rows, at several violation caps, the smallest ones
// cutting a run of violations inside one (i, x, j).
func checkRDTOracle(g *Graph, tdvs *TDVTable) error {
	rows := reachRows(g)
	for _, limit := range []int{1, 3, 16, 1024} {
		got := checkRDT(g, tdvs, limit)
		if err := diffReports(checkRDTPairs(g, rows, tdvs, limit), got); err != nil {
			return fmt.Errorf("checkRDT(%d) against the pair loop: %w", limit, err)
		}
		if err := diffReports(checkRDTWords(g, rows, tdvs, limit), got); err != nil {
			return fmt.Errorf("checkRDT(%d) against the word scan: %w", limit, err)
		}
	}
	return nil
}

// explainPairs is the witness search as it was before the suffix scan:
// a BFS over the stored adjacency of every ordered message pair
// (pairContinuations' chainAdj), roots and successors in slice-position
// order. On patterns whose senders' messages are stored in send order it
// must find the same chain as explainer.explain.
func explainPairs(p *model.Pattern, chainAdj [][]int, v Violation) (*Witness, error) {
	msgs := p.Messages
	goal := func(b int) bool { return msgs[b].To == v.To.Proc && msgs[b].DeliverInterval <= v.To.Index }
	seen := make([]bool, len(msgs))
	pred := make([]int, len(msgs))
	var queue []int
	found := -1
	for a := range msgs {
		if msgs[a].From != v.From.Proc || msgs[a].SendInterval < v.From.Index {
			continue
		}
		seen[a], pred[a] = true, -1
		if goal(a) {
			found = a
			break
		}
		queue = append(queue, a)
	}
	for head := 0; found < 0 && head < len(queue); head++ {
		a := queue[head]
		for _, b := range chainAdj[a] {
			if seen[b] {
				continue
			}
			seen[b], pred[b] = true, a
			if goal(b) {
				found = b
				break
			}
			queue = append(queue, b)
		}
	}
	if found < 0 {
		return nil, fmt.Errorf("explain %v: no message chain realizes the R-path", v)
	}
	var chain []int
	for at := found; at >= 0; at = pred[at] {
		chain = append([]int{at}, chain...)
	}
	return newWitness(p, v, chain), nil
}

// checkWitnessOracle holds ExplainReport to explainPairs on every
// violation of rep, witness string for witness string.
func checkWitnessOracle(p *model.Pattern, rep *Report) error {
	ws, err := ExplainReport(p, rep)
	if err != nil {
		return err
	}
	if rep.RDT {
		return nil
	}
	chainAdj, _ := pairContinuations(p)
	for i, v := range rep.Violations {
		want, err := explainPairs(p, chainAdj, v)
		if err != nil {
			return err
		}
		if got := ws[i].String(); got != want.String() {
			return fmt.Errorf("witness %d differs from the pair-adjacency search:\n  got  %s\n  want %s", i, got, want)
		}
	}
	return nil
}
