package service

// What the external tests (package service_test, which may import
// internal/stream) use of this package's tests: the JSON decode
// differential and its corpus.
var (
	DecodeDiff     = decodeDiff
	JSONSeedCorpus = jsonSeedCorpus
	MutateJSON     = mutateJSON
	RaceEnabled    = raceEnabled
)
