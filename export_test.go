package relatrust

// WeightMemoLen reports how many attribute sets the session's weight
// source has priced.
func WeightMemoLen(s *Session) int { return s.eng.Weights().Len() }
