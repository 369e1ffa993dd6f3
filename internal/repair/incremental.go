package repair

import (
	"sync"

	"bigdansing/internal/model"
)

// ClassMemory is the persistent equivalence-class repair state of a
// streaming cleanse session: for every cell a past repair round drove to a
// value, it remembers that value. Later rounds consult the memory as one
// extra vote per remembered cell, which makes streaming repair *sticky* —
// a class that already converged on a target keeps pulling newly ingested
// dirty tuples toward the same target instead of flip-flopping when a batch
// briefly shifts the value frequencies (the cumulative repair context of
// Bleach-style streaming cleaners).
//
// The memory is updated in place between flushes rather than rebuilt: a
// session records the assignments it applied after each flush, and the
// equivalence-class algorithm reads it (concurrently, one goroutine per
// repair component) through the Prior hook. It is safe for concurrent use.
type ClassMemory struct {
	mu    sync.RWMutex
	prefs map[model.CellKey]model.Value
}

// NewClassMemory builds an empty memory.
func NewClassMemory() *ClassMemory {
	return &ClassMemory{prefs: map[model.CellKey]model.Value{}}
}

// Record remembers the target value of each applied assignment. Frozen
// cells are skipped: a pinned cell must not keep voting for a value the
// termination device stopped it from reaching.
func (m *ClassMemory) Record(as []Assignment, frozen map[model.CellKey]bool) {
	if m == nil || len(as) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range as {
		k := a.CellKey()
		if frozen[k] {
			continue
		}
		m.prefs[k] = a.Value
	}
}

// Prefer returns the remembered value for a cell, if any. It implements the
// EquivalenceClass.Prior hook.
func (m *ClassMemory) Prefer(k model.CellKey) (model.Value, bool) {
	if m == nil {
		return model.Value{}, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.prefs[k]
	return v, ok
}

// Len reports how many cells are remembered.
func (m *ClassMemory) Len() int {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.prefs)
}
