package wal

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkAppendSync is one committed record — Append, then Sync — at
// the payload sizes of the service's batch records: an event encodes to
// about six bytes, so 192 and 768 bytes stand for a 32- and a 128-event
// batch. The fsync dominates, which is why the service shares one among
// the batches it finds queued.
func BenchmarkAppendSync(b *testing.B) {
	for _, size := range []int{192, 768} {
		b.Run(fmt.Sprintf("bytes%d", size), func(b *testing.B) {
			l, err := OpenAppend(filepath.Join(b.TempDir(), "wal.log"))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(HeaderSize + size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
