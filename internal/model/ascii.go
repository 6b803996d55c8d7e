package model

import (
	"fmt"
	"sort"
	"strings"
)

// ASCII renders the pattern as a space-time diagram: one lane per process,
// one column per event, in a causally consistent global order. Checkpoints
// appear as [x] (their index), sends as sNN and deliveries as dNN (NN the
// message id), idle positions as dashes:
//
//	P0 [0]─s0──────[1]─
//	P1 [0]─────d0──────
//
// The rendering is meant for debugging small traces (tests, examples, the
// rdtcheck CLI); width grows linearly with the number of events.
func (p *Pattern) ASCII() string {
	type ev struct {
		seq, col   int
		text       string
		send, recv int // the message id sent or delivered; -1 if none
	}
	lanes := make([][]ev, p.N)
	for i, cs := range p.Checkpoints {
		for x := range cs {
			lanes[i] = append(lanes[i], ev{seq: cs[x].Seq, text: fmt.Sprintf("[%d]", x), send: -1, recv: -1})
		}
	}
	for _, m := range p.Messages {
		lanes[m.From] = append(lanes[m.From], ev{seq: m.SendSeq, text: fmt.Sprintf("s%d", m.ID), send: m.ID, recv: -1})
		lanes[m.To] = append(lanes[m.To], ev{seq: m.DeliverSeq, text: fmt.Sprintf("d%d", m.ID), send: -1, recv: m.ID})
	}
	for _, lane := range lanes {
		sort.Slice(lane, func(a, b int) bool { return lane[a].seq < lane[b].seq })
	}

	// Assign columns in a causally consistent order: per-process order by
	// seq, deliveries only after their send. Repeatedly emit the runnable
	// prefix of each process.
	pos := make([]int, p.N)
	sent := make(map[int]bool, len(p.Messages))
	var widths []int
	for progressed := true; progressed; {
		progressed = false
		for i, lane := range lanes {
			for ; pos[i] < len(lane) && (lane[pos[i]].recv < 0 || sent[lane[pos[i]].recv]); pos[i]++ {
				e := &lane[pos[i]]
				if e.send >= 0 {
					sent[e.send] = true
				}
				e.col = len(widths)
				widths = append(widths, len(e.text))
				progressed = true
			}
		}
	}
	for i, lane := range lanes {
		if pos[i] < len(lane) {
			return "(pattern admits no causally consistent order)"
		}
	}

	var b strings.Builder
	for i, lane := range lanes {
		fmt.Fprintf(&b, "P%-2d ", i)
		next := 0
		for c, w := range widths {
			if next < len(lane) && lane[next].col == c {
				b.WriteString(lane[next].text + "-")
				next++
			} else {
				b.WriteString(strings.Repeat("-", w+1))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
