package core

import (
	"encoding/binary"
	"unsafe"

	"bigdansing/internal/model"
)

// scanKey identifies one materialized scan: a relation under a scope chain
// (none for the base scan). Branches with equal keys apply the same
// functions to the same dataset, so Algorithm 1 consolidates them onto one
// scan.
type scanKey struct {
	rel    *model.Relation
	scopes string // each scope's funcWord, in chain order
}

// scanOf is the one definition of a base branch's scan identity:
// Consolidate counts shared scans by it and the executor caches scoped
// streams by it.
func scanOf(rel *model.Relation, scopes []ScopeFunc) scanKey {
	k := scanKey{rel: rel}
	if len(scopes) > 0 {
		words := make([]byte, 0, 8*len(scopes))
		for _, s := range scopes {
			words = binary.LittleEndian.AppendUint64(words, uint64(funcWord(s)))
		}
		k.scopes = string(words)
	}
	return k
}

// funcWord identifies a func by value: the address of its closure object
// (the code pointer plus the captured variables), which is the func value's
// one machine word. The code pointer, which reflect reports, is wrong here:
// every closure of one func literal shares it, so two scopes a factory built
// with different captures would share a scan, and the second rule would read
// the first's stream. Distinct live closures have distinct objects; one func
// value reused, a capture-free literal or a top-level func keeps one. Go
// exposes the word only through unsafe, so this is the one place that reads
// it.
func funcWord(fn ScopeFunc) uintptr {
	return *(*uintptr)(unsafe.Pointer(&fn))
}
