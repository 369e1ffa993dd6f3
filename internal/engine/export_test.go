package engine

// HashKey exposes the shuffle hash to the external test package, whose
// reference groupings place keys the way the wide operators must.
func HashKey[K comparable](k K) uint64 { return hashKey(k) }
