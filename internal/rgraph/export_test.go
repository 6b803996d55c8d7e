package rgraph

// Internals the external test package reads (scaling_test.go lives
// there because the traffic generator it uses imports this package).

func (inc *Incremental) GrowVisits() int  { return inc.growVisits }
func (inc *Incremental) MinReachLen() int { return len(inc.minReach) }
func (inc *Incremental) Nodes() int       { return len(inc.nodeProc) }

// ClosureOracle is the bitset reference closure of oracle_test.go.
type ClosureOracle = closureOracle

func (o *closureOracle) Sync(inc *Incremental) { o.sync(inc) }
func (o *closureOracle) WordMerges() int       { return o.wordMerges }
