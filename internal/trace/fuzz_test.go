package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the trace loader: it must either
// reject the input or return a pattern that passes validation — never
// panic, never accept garbage.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{`))
	f.Add([]byte(`{"n":0}`))
	f.Add([]byte(`{"n":1,"checkpoints":[[{"proc":0,"index":0,"seq":0,"kind":1}]],"messages":[]}`))
	p, err := Figure1()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(strings.Replace(buf.String(), `"sendSeq": 1`, `"sendSeq": -7`, 1)))
	selfMessage, err := os.ReadFile("testdata/self_message.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(selfMessage)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("loader accepted an invalid pattern: %v", err)
		}
	})
}
