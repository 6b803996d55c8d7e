package service_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

// TestJSONScannerMatchesOracle is the JSON ingest decoder's differential:
// the one-pass scanner against the encoding/json decoder it replaced, on
// the seed corpus, on the 128-event bodies bench's json-rotate posts
// (stream.NewTraffic("random"), 8 processes) and on 100 000 seeded
// mutations of them. They must agree on accepting, on the events and on
// the record admission enqueues.
func TestJSONScannerMatchesOracle(t *testing.T) {
	corpus := make([][]byte, 0, len(service.JSONSeedCorpus)+2)
	for _, body := range service.JSONSeedCorpus {
		corpus = append(corpus, []byte(body))
	}
	for seed := int64(1); seed <= 2; seed++ {
		tr, err := stream.NewTraffic("random", 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(tr.Next(nil, 128))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, body)
	}
	maxBatches := []int{3, 16, 0} // 0: the default, 512
	for _, body := range corpus {
		for _, maxBatch := range maxBatches {
			service.DecodeDiff(t, body, maxBatch)
		}
	}

	mutations := 100_000
	if testing.Short() || service.RaceEnabled {
		mutations = 10_000
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for range mutations {
		body := service.MutateJSON(rng, corpus[rng.Intn(len(corpus))])
		if service.DecodeDiff(t, body, maxBatches[rng.Intn(len(maxBatches))]) {
			accepted++
		}
	}
	// Both outcomes must be common, or the mutations test little.
	if accepted < mutations/20 || accepted > mutations-mutations/20 {
		t.Fatalf("%d of %d mutated bodies accepted", accepted, mutations)
	}
	t.Logf("%d of %d mutated bodies accepted", accepted, mutations)
}
