package trace

import (
	"io"
	"sort"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
)

// Timeline converts a pattern into spans on a logical clock: timestamps
// are the recorded per-process event sequence positions (scaled to keep
// spans visibly apart), so the same pattern always yields byte-identical
// Chrome trace output — the determinism the golden tests pin down. Each
// message becomes a send span and a deliver span sharing a trace id, the
// delivery parented to the send (the causal link Perfetto draws as a
// flow); each non-initial checkpoint becomes a checkpoint span, forced
// checkpoints marked by kind.
func Timeline(p *model.Pattern) []obs.Span {
	const tick = 10 // logical µs per local event, so dur=tick/2 spans never touch
	msgs := make([]model.Message, len(p.Messages))
	copy(msgs, p.Messages)
	sort.Slice(msgs, func(a, b int) bool { return msgs[a].ID < msgs[b].ID })

	spans := make([]obs.Span, 0, 2*len(msgs)+p.NumCheckpoints())
	for i := range msgs {
		m := &msgs[i]
		traceID := uint64(m.ID) + 1
		sendID := 2*uint64(m.ID) + 1
		deliverID := sendID + 1
		spans = append(spans,
			obs.Span{
				TraceID: traceID, ID: sendID, Kind: obs.SpanSend,
				Proc: int(m.From), Peer: int(m.To),
				Start: int64(m.SendSeq) * tick, Dur: tick / 2,
				Detail: m.String(),
			},
			obs.Span{
				TraceID: traceID, ID: deliverID, Parent: sendID, Kind: obs.SpanDeliver,
				Proc: int(m.To), Peer: int(m.From),
				Start: int64(m.DeliverSeq) * tick, Dur: tick / 2,
				Detail: m.String(),
			})
	}
	ckptBase := 2 * uint64(len(msgs))
	for i, cs := range p.Checkpoints {
		for x := range cs {
			ck := &cs[x]
			if ck.Kind == model.KindInitial {
				continue
			}
			kind := obs.SpanCheckpoint
			if ck.Kind == model.KindForced {
				kind = obs.SpanForced
			}
			ckptBase++
			spans = append(spans, obs.Span{
				ID: ckptBase, Kind: kind,
				Proc:  i,
				Start: int64(ck.Seq) * tick, Dur: tick / 2,
				Detail: ck.ID().String() + " " + ck.Kind.String(),
			})
		}
	}
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].Proc != spans[b].Proc {
			return spans[a].Proc < spans[b].Proc
		}
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].ID < spans[b].ID
	})
	return spans
}

// WriteTimeline renders the pattern's logical timeline as Chrome
// trace-event JSON.
func WriteTimeline(w io.Writer, p *model.Pattern) error {
	return obs.WriteChromeTrace(w, Timeline(p))
}
