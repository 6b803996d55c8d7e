package sim

// Tape exports a schedule's tape to the external tests.
func Tape(s *Schedule) []Op { return s.ops }
