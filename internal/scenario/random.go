package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/rdt-go/rdt/internal/core"
)

// Generate builds a random but fully determined scenario from a seed:
// bursts of topology traffic interleaved with partitions, disconnect
// windows, and crash/recover cycles, spanning span of virtual time. The
// same seed always yields the same scenario, so a soak failure is a
// one-line reproducer.
func Generate(seed int64, span time.Duration) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	protocols := []core.Kind{core.KindBHMR, core.KindFDAS, core.KindBCS, core.KindBHMRNoSimple}
	modes := []string{TrafficRing, TrafficPairs, TrafficClientServer, TrafficRandom, TrafficDBTxn}

	sc := &Scenario{
		Name:     fmt.Sprintf("soak-%d", seed),
		N:        3 + rng.Intn(4),
		Protocol: protocols[rng.Intn(len(protocols))],
		Seed:     seed,
		Delay:    time.Duration(1+rng.Intn(4)) * time.Millisecond,
	}
	if rng.Intn(2) == 0 {
		sc.HasFaults = true
		sc.Faults.Drop = 0.05 * rng.Float64()
		sc.Faults.Duplicate = 0.05 * rng.Float64()
		sc.Faults.Reorder = 0.2 * rng.Float64()
		sc.Faults.MaxExtraDelay = time.Duration(rng.Intn(5)) * time.Millisecond
		sc.Reliable = true
	}

	seq := 0
	add := func(at time.Duration, st Step) {
		st.At = at
		st.seq = seq
		seq++
		sc.Steps = append(sc.Steps, st)
	}

	// Walk virtual time forward, dropping an event burst every few
	// seconds; the long idle gaps between bursts cost nothing under the
	// virtual clock but make the soak cover hours of simulated operation.
	gap := span / 24
	at := time.Duration(0)
	partitioned := false
	for at < span-gap {
		switch rng.Intn(6) {
		case 0, 1, 2: // traffic burst
			add(at, Step{Op: OpTraffic, A: -1, B: -1,
				Mode: modes[rng.Intn(len(modes))], Rounds: 1 + rng.Intn(3)})
		case 3: // partition window
			if !partitioned && sc.N >= 2 {
				a := rng.Intn(sc.N)
				b := rng.Intn(sc.N - 1)
				if b >= a {
					b++
				}
				add(at, Step{Op: OpPartition, A: a, B: b})
				add(at+gap/2, Step{Op: OpHeal, A: a, B: b})
				partitioned = true
			}
		case 4: // mobile host drops off the network for a while
			p := rng.Intn(sc.N)
			add(at, Step{Op: OpIsolate, A: p, B: -1, Dur: gap / 2})
			add(at+gap/2, Step{Op: OpReconnect, A: p, B: -1})
		case 5: // crash, let traffic run degraded, then recover
			p := rng.Intn(sc.N)
			add(at, Step{Op: OpCrash, A: p, B: -1})
			add(at+gap/4, Step{Op: OpTraffic, A: -1, B: -1, Mode: TrafficRandom, Rounds: 1})
			add(at+gap/2, Step{Op: OpRecover, A: -1, B: -1})
		}
		at += gap
	}
	add(span, Step{Op: OpSettle, A: -1, B: -1})

	sc.withDefaults()
	sc.sortSteps()
	if err := sc.validate(); err != nil {
		panic(fmt.Sprintf("scenario: Generate(%d) built an invalid scenario: %v", seed, err))
	}
	return sc
}

// roundGap spaces the rounds of a Chaos scenario: longer than the
// default delivery jitter plus the default fault delay, so a round's
// deliveries land before the next round sends unless retransmission
// holds them back.
const roundGap = 10 * time.Millisecond

// Chaos builds the scenario rdtsim's -faults and -supervise flags
// describe: n processes running protocol over the retransmission layer
// and the fault mix faults (empty means no injector), for the given
// number of rounds. Each round every process sends, then process
// round%n checkpoints. Unsupervised, process p sends to p+1 and p+2;
// supervised, to p+1+round%(n-1), and after rounds/2 rounds a seeded
// victim crashes and must be recovered by the supervisor before the
// rest run. checkRDT adds 'expect verdict rdt'.
func Chaos(n int, protocol core.Kind, seed int64, rounds int, faults string, supervise, checkRDT bool) (*Scenario, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("scenario: rounds must be >= 0, have %d", rounds)
	}
	sc := &Scenario{Name: "faults", N: n, Protocol: protocol, Seed: seed, Reliable: true, Supervise: supervise}
	if supervise {
		sc.Name = "supervised"
	}
	if faults != "" {
		probs, err := parseFaultMix(faults)
		if err != nil {
			return nil, err
		}
		sc.Faults, sc.HasFaults = probs, true
	}
	if checkRDT {
		sc.Expect.Verdict = "rdt"
	}
	sc.withDefaults()
	if err := sc.validate(); err != nil { // before the steps, which divide by n-1
		return nil, err
	}

	add := func(at time.Duration, st Step) {
		st.At, st.seq = at, len(sc.Steps)
		sc.Steps = append(sc.Steps, st)
	}
	round := func(r int, at time.Duration) {
		for p := 0; p < n; p++ {
			dests := []int{(p + 1) % n, (p + 2) % n}
			if supervise {
				dests = []int{(p + 1 + r%(n-1)) % n}
			}
			for _, to := range dests {
				if to != p {
					add(at, Step{Op: OpSend, A: p, B: to})
				}
			}
		}
		add(at, Step{Op: OpCheckpoint, A: r % n, B: -1})
	}
	if !supervise {
		for r := 0; r < rounds; r++ {
			round(r, time.Duration(r)*roundGap)
		}
		return sc, nil
	}
	half := rounds / 2
	for r := 0; r < half; r++ {
		round(r, time.Duration(r)*roundGap)
	}
	victim := rand.New(rand.NewSource(seed)).Intn(n)
	crashAt := time.Duration(half) * roundGap
	add(crashAt, Step{Op: OpCrash, A: victim, B: -1})
	add(crashAt, Step{Op: OpAwaitRecovery, A: -1, B: -1})
	for r := half; r < rounds; r++ {
		round(r, time.Duration(r+1)*roundGap)
	}
	add(time.Duration(rounds+1)*roundGap, Step{Op: OpSettle, A: -1, B: -1})
	sc.Expect.Recovered = []int{victim}
	return sc, nil
}
