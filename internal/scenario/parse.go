package scenario

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/transport"
)

// ParseFile reads one scenario from a .rdts file.
func ParseFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse reads one scenario in the line-oriented text format. Blank
// lines and '#' comments (full-line or trailing) are ignored.
func Parse(r io.Reader) (*Scenario, error) {
	sc := &Scenario{}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 64*1024), 64*1024)
	lineno := 0
	seq := 0
	for scan.Scan() {
		lineno++
		line := scan.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "at":
			err = parseStep(sc, fields[1:], lineno, &seq)
		case "expect":
			err = parseExpect(sc, fields[1:])
		default:
			err = parseHeader(sc, fields)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	sc.withDefaults()
	sc.sortSteps()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func parseHeader(sc *Scenario, fields []string) error {
	key := fields[0]
	want := func(n int) error {
		if len(fields) != n+1 {
			return fmt.Errorf("%s takes %d argument(s), have %d", key, n, len(fields)-1)
		}
		return nil
	}
	switch key {
	case "scenario":
		if err := want(1); err != nil {
			return err
		}
		sc.Name = fields[1]
	case "procs":
		if err := want(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("procs: %w", err)
		}
		sc.N = n
	case "protocol":
		if err := want(1); err != nil {
			return err
		}
		kind, err := core.ParseKind(fields[1])
		if err != nil {
			return err
		}
		sc.Protocol = kind
	case "seed":
		if err := want(1); err != nil {
			return err
		}
		s, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		sc.Seed = s
	case "delay", "drain":
		if err := want(1); err != nil {
			return err
		}
		d, err := parseSpan(fields[1])
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if key == "delay" {
			sc.Delay = d
		} else {
			sc.Drain = d
		}
	case "faults":
		if err := want(1); err != nil {
			return err
		}
		probs, err := parseFaultMix(fields[1])
		if err != nil {
			return err
		}
		sc.Faults = probs
		sc.HasFaults = true
	case "reliable":
		if err := want(0); err != nil {
			return err
		}
		sc.Reliable = true
	case "supervise":
		if err := want(0); err != nil {
			return err
		}
		sc.Supervise = true
	default:
		return fmt.Errorf("unknown header %q", key)
	}
	return nil
}

// parseStep parses the tail of an "at DUR OP ..." line. Disconnect
// windows desugar into an isolate step now and a reconnect step at the
// window's end, so the executor sees a flat schedule.
func parseStep(sc *Scenario, fields []string, lineno int, seq *int) error {
	if len(fields) < 2 {
		return fmt.Errorf("at: want 'at DURATION OP ...'")
	}
	at, err := parseDur(fields[0])
	if err != nil {
		return fmt.Errorf("at: %w", err)
	}
	if at < 0 {
		return fmt.Errorf("at: negative instant %v", at)
	}
	op := fields[1]
	args := fields[2:]
	st := Step{At: at, A: -1, B: -1, Line: lineno}
	add := func(s Step) {
		s.seq = *seq
		*seq++
		sc.Steps = append(sc.Steps, s)
	}
	procArg := func(i int) (int, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("%s: missing process argument", op)
		}
		p, err := strconv.Atoi(args[i])
		if err != nil {
			return 0, fmt.Errorf("%s: process %q: %w", op, args[i], err)
		}
		return p, nil
	}
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s), have %d", op, n, len(args))
		}
		return nil
	}
	switch op {
	case "checkpoint", "bcast", "crash", "restart":
		if err := argc(1); err != nil {
			return err
		}
		if st.A, err = procArg(0); err != nil {
			return err
		}
		switch op {
		case "checkpoint":
			st.Op = OpCheckpoint
		case "bcast":
			st.Op = OpBcast
		case "crash":
			st.Op = OpCrash
		case "restart":
			st.Op = OpRestart
		}
		add(st)
	case "send", "partition", "heal":
		if err := argc(2); err != nil {
			return err
		}
		if st.A, err = procArg(0); err != nil {
			return err
		}
		if st.B, err = procArg(1); err != nil {
			return err
		}
		switch op {
		case "send":
			st.Op = OpSend
		case "partition":
			st.Op = OpPartition
		case "heal":
			st.Op = OpHeal
		}
		add(st)
	case "heal-all", "recover", "await-recovery", "settle":
		if err := argc(0); err != nil {
			return err
		}
		switch op {
		case "heal-all":
			st.Op = OpHealAll
		case "recover":
			st.Op = OpRecover
		case "await-recovery":
			st.Op = OpAwaitRecovery
		case "settle":
			st.Op = OpSettle
		}
		add(st)
	case "traffic":
		if len(args) != 2 {
			return fmt.Errorf("traffic takes 'MODE rounds=N'")
		}
		st.Op = OpTraffic
		st.Mode = args[0]
		val, ok := strings.CutPrefix(args[1], "rounds=")
		if !ok {
			return fmt.Errorf("traffic: want rounds=N, have %q", args[1])
		}
		if st.Rounds, err = strconv.Atoi(val); err != nil {
			return fmt.Errorf("traffic rounds: %w", err)
		}
		add(st)
	case "disconnect":
		if len(args) != 2 {
			return fmt.Errorf("disconnect takes 'PROC for=DURATION'")
		}
		if st.A, err = procArg(0); err != nil {
			return err
		}
		val, ok := strings.CutPrefix(args[1], "for=")
		if !ok {
			return fmt.Errorf("disconnect: want for=DURATION, have %q", args[1])
		}
		d, err := parseDur(val)
		if err != nil {
			return fmt.Errorf("disconnect for: %w", err)
		}
		if d <= 0 {
			return fmt.Errorf("disconnect: window must be positive, have %v", d)
		}
		st.Op = OpIsolate
		st.Dur = d
		add(st)
		add(Step{At: at + d, Op: OpReconnect, A: st.A, B: -1, Line: lineno})
	default:
		return fmt.Errorf("unknown directive %q", op)
	}
	return nil
}

func parseExpect(sc *Scenario, fields []string) error {
	if len(fields) < 1 {
		return fmt.Errorf("expect: missing assertion")
	}
	switch fields[0] {
	case "verdict":
		if len(fields) != 2 {
			return fmt.Errorf("expect verdict takes 'rdt' or 'violation'")
		}
		sc.Expect.Verdict = fields[1]
	case "recovered":
		if len(fields) != 2 {
			return fmt.Errorf("expect recovered takes one process")
		}
		p, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("expect recovered: %w", err)
		}
		sc.Expect.Recovered = append(sc.Expect.Recovered, p)
	case "line":
		if len(fields) != 2 {
			return fmt.Errorf("expect line takes a comma-separated index list")
		}
		for _, part := range strings.Split(fields[1], ",") {
			i, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("expect line: %w", err)
			}
			sc.Expect.Line = append(sc.Expect.Line, i)
		}
		sc.Expect.HasLine = true
	case "min-delivered":
		if len(fields) != 2 {
			return fmt.Errorf("expect min-delivered takes a count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("expect min-delivered: %w", err)
		}
		sc.Expect.MinDelivered = n
	case "lost":
		if len(fields) != 2 {
			return fmt.Errorf("expect lost takes a count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("expect lost: %w", err)
		}
		sc.Expect.Lost = n
		sc.Expect.HasLost = true
	default:
		return fmt.Errorf("unknown expectation %q", fields[0])
	}
	return nil
}

// parseDur parses a Go duration, also accepting a bare number as
// milliseconds (the format's natural unit).
func parseDur(s string) (time.Duration, error) {
	if n, err := strconv.Atoi(s); err == nil {
		return time.Duration(n) * time.Millisecond, nil
	}
	return time.ParseDuration(s)
}

// parseSpan parses a duration that may not be negative: a delay or a
// drain window, where zero means the default.
func parseSpan(s string) (time.Duration, error) {
	d, err := parseDur(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %v", d)
	}
	return d, err
}

// parseFaultMix parses "drop=0.05,dup=0.05,reorder=0.1,err=0.02,delay=3ms",
// the header's mix and rdtsim's -faults flag alike.
func parseFaultMix(s string) (transport.FaultProbs, error) {
	var p transport.FaultProbs
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("faults: want key=value, have %q", part)
		}
		key, val := kv[0], kv[1]
		if key == "delay" {
			d, err := parseSpan(val)
			if err != nil {
				return p, fmt.Errorf("faults delay: %w", err)
			}
			p.MaxExtraDelay = d
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return p, fmt.Errorf("faults %s: %w", key, err)
		}
		if f < 0 || f > 1 {
			return p, fmt.Errorf("faults %s: probability %v out of [0,1]", key, f)
		}
		switch key {
		case "drop":
			p.Drop = f
		case "dup":
			p.Duplicate = f
		case "reorder":
			p.Reorder = f
		case "err":
			p.SendError = f
		default:
			return p, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	return p, nil
}
