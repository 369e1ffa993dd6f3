package model

import (
	"fmt"
)

// MustIndex is Index but panics on a missing attribute; used where rule
// construction has already validated names.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.Index(name)
	if !ok {
		panic(fmt.Sprintf("model: schema has no attribute %q", name))
	}
	return i
}
