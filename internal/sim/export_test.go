package sim

// ForcePerFlit switches flit trains off for s, so every flit-hop is its own
// event: the reference the train oracle compares against. Call before the
// first Submit; it holds across Reset.
func ForcePerFlit(s *Simulator) {
	s.perFlit = true
	s.trainsOn = false
}

// TrainStats reports how many trains s has opened and how many payload
// flit-hops their arithmetic ticks carried.
func TrainStats(s *Simulator) (opened, hops uint64) { return s.trainsOpened, s.trainHops }
