package stream

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/service"
)

// BenchmarkAckPath is the wire's ack-path row: a real Server and Client
// over loopback, each channel a producer that keeps its credit window in
// flight in 32-event frames, on 1 and on 64 channels. One op is one
// frame sent, applied and acked, so ns/op is ns per frame; allocs/op
// counts both ends. The checker's apply is most of a frame's time, so
// the row bounds the ack path from above. A session takes every frame
// of its channel, so the checkpoint limit is lifted.
func BenchmarkAckPath(b *testing.B) {
	for _, chans := range []int{1, 64} {
		b.Run(fmt.Sprintf("channels-%d", chans), func(b *testing.B) {
			svc, err := service.New(service.Config{MaxCheckpoints: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := Serve("127.0.0.1:0", Config{Service: svc})
			if err != nil {
				b.Fatal(err)
			}
			c, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			chs := make([]*Chan, chans)
			for i := range chs {
				if chs[i], err = c.Open(fmt.Sprintf("ack-%d", i), 2, "p"); err != nil {
					b.Fatal(err)
				}
			}
			batch := testBatch(32)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, ch := range chs {
				frames := b.N / chans
				if i < b.N%chans {
					frames++
				}
				wg.Add(1)
				go func(ch *Chan, frames int) {
					defer wg.Done()
					for f := 0; f < frames; f++ {
						if err := ch.Send(batch); err != nil {
							b.Error(err)
							return
						}
					}
					if err := ch.Flush(context.Background()); err != nil {
						b.Error(err)
					}
				}(ch, frames)
			}
			wg.Wait()
			b.StopTimer()
			_ = c.Close()
			_ = srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = svc.Drain(ctx)
		})
	}
}
