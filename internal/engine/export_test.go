package engine

// HashKey exposes the shuffle hash to the external test package, whose
// reference groupings place keys the way the wide operators must.
func HashKey[K comparable](k K) uint64 { return hashKey(k) }

// Reset zeroes all counters and clears the per-stage log.
func (s *Stats) Reset() {
	s.tasks.Store(0)
	s.stages.Store(0)
	s.recordsShuffled.Store(0)
	s.recordsRead.Store(0)
	s.bytesSpilled.Store(0)
	s.spillRuns.Store(0)
	s.mergePasses.Store(0)
	s.peakReserved.Store(0)
	s.netBytesSent.Store(0)
	s.netBytesRecv.Store(0)
	s.netDials.Store(0)
	s.netRetries.Store(0)
	s.netStraggler.Store(0)
	s.netRecovered.Store(0)
	s.mu.Lock()
	s.perStage = nil
	s.stageIdx = nil
	s.mu.Unlock()
}
