package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/model"
)

func TestFigure1Shape(t *testing.T) {
	p, err := Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	if p.N != 3 {
		t.Fatalf("N = %d, want 3", p.N)
	}
	if len(p.Messages) != 7 {
		t.Fatalf("messages = %d, want 7", len(p.Messages))
	}
	for i := 0; i < 3; i++ {
		if got := len(p.Checkpoints[i]); got != 4 {
			t.Errorf("process %d has %d checkpoints, want 4 (C0..C3)", i, got)
		}
	}
	// Message placement straight from the paper's figure.
	tests := []struct {
		id                    int
		from, to              model.ProcID
		sendIntv, deliverIntv int
	}{
		{M1, Pi, Pj, 1, 1},
		{M2, Pj, Pi, 1, 2},
		{M3, Pk, Pj, 1, 1},
		{M4, Pj, Pk, 2, 2},
		{M5, Pi, Pj, 3, 2},
		{M6, Pj, Pk, 2, 2},
		{M7, Pk, Pj, 2, 3},
	}
	for _, tt := range tests {
		m := p.Messages[tt.id]
		if m.ID != tt.id {
			t.Fatalf("messages not sorted by id: %v", m)
		}
		if m.From != tt.from || m.To != tt.to || m.SendInterval != tt.sendIntv || m.DeliverInterval != tt.deliverIntv {
			t.Errorf("m%d = %v, want P%d[I%d] -> P%d[I%d]", tt.id, &m, tt.from, tt.sendIntv, tt.to, tt.deliverIntv)
		}
	}
	// The chain [m3 m2] is non-causal: m2 is sent before m3 is delivered.
	m2, m3 := p.Messages[M2], p.Messages[M3]
	if m2.SendSeq > m3.DeliverSeq {
		t.Error("m2 sent after m3 delivered; [m3 m2] would be causal")
	}
	// The chain [m5 m6] is causal, [m5 m4] is not.
	m4, m5, m6 := p.Messages[M4], p.Messages[M5], p.Messages[M6]
	if !(m5.DeliverSeq < m6.SendSeq) {
		t.Error("[m5 m6] not causal")
	}
	if !(m4.SendSeq < m5.DeliverSeq) {
		t.Error("[m5 m4] not a zigzag")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, err := Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.N != p.N || len(got.Messages) != len(p.Messages) {
		t.Fatalf("round trip lost structure")
	}
	for i := range p.Messages {
		if got.Messages[i] != p.Messages[i] {
			t.Errorf("message %d: %v != %v", i, got.Messages[i], p.Messages[i])
		}
	}
	for i := range p.Checkpoints {
		for x := range p.Checkpoints[i] {
			a, b := got.Checkpoints[i][x], p.Checkpoints[i][x]
			if a.Proc != b.Proc || a.Index != b.Index || a.Seq != b.Seq || a.Kind != b.Kind {
				t.Errorf("checkpoint %v mismatch", b.ID())
			}
		}
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	selfMessage, err := os.ReadFile("testdata/self_message.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name, data, want string
	}{
		{"truncated JSON", "{", ""},
		{"no processes", `{"n":0}`, "no processes"},
		// A message from P1 to P1, well placed in every other respect.
		{"self-message", string(selfMessage), "message 1 from process 1 to itself"},
	} {
		if _, err := Load(strings.NewReader(tt.data)); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: Load = %v, want an error saying %q", tt.name, err, tt.want)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	p, err := Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fig1.json")
	if err := SaveFile(path, p); err != nil {
		t.Fatalf("save file: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	if got.N != 3 {
		t.Errorf("N = %d", got.N)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loaded a missing file")
	}
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f.json"), p); err == nil {
		t.Error("saved into a missing directory")
	}
}

func TestFigure1AnnotationFree(t *testing.T) {
	p, err := Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	for i := range p.Checkpoints {
		for x := range p.Checkpoints[i] {
			if p.Checkpoints[i][x].TDV != nil {
				t.Fatalf("figure fixture should carry no TDVs, %v does", p.Checkpoints[i][x].ID())
			}
		}
	}
}
