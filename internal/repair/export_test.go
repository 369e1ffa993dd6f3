package repair

import (
	"bigdansing/internal/model"
)

// Forget drops the memory of one cell (a caller applying an out-of-band
// edit invalidates what repair learned about it).
func (m *ClassMemory) Forget(k model.CellKey) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.prefs, k)
}
