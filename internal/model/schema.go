package model

import (
	"fmt"
	"strings"
)

// Attribute describes one column of a Schema.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema names and types the elements of a data unit. Schemas are immutable
// after construction; layers share them by pointer.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from attribute definitions. Attribute names must
// be unique (case-insensitive); NewSchema panics otherwise because a
// duplicate attribute is a programming error, not a data error.
func NewSchema(attrs ...Attribute) *Schema {
	s := &Schema{attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		key := strings.ToLower(a.Name)
		if _, dup := s.index[key]; dup {
			panic(fmt.Sprintf("model: duplicate attribute %q in schema", a.Name))
		}
		s.index[key] = i
	}
	return s
}

// ParseSchema parses "name:string,zipcode:int,rate:float" notation.
// Attributes without an explicit kind default to string. An unknown kind,
// an empty attribute name, a duplicate attribute (case-insensitive) or a
// spec without attributes is an error: the spec is user input.
func ParseSchema(spec string) (*Schema, error) {
	parts := strings.Split(spec, ",")
	attrs := make([]Attribute, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		name, kindName, ok := strings.Cut(p, ":")
		name = strings.TrimSpace(name)
		kind := KindString
		if ok {
			switch strings.TrimSpace(strings.ToLower(kindName)) {
			case "string", "str", "text":
				kind = KindString
			case "int", "integer", "long":
				kind = KindInt
			case "float", "double", "real":
				kind = KindFloat
			default:
				return nil, fmt.Errorf("model: unknown kind %q in schema spec", kindName)
			}
		}
		if name == "" {
			return nil, fmt.Errorf("model: attribute without a name in schema spec %q", spec)
		}
		key := strings.ToLower(name)
		if seen[key] {
			return nil, fmt.Errorf("model: duplicate attribute %q in schema", name)
		}
		seen[key] = true
		attrs = append(attrs, Attribute{Name: name, Kind: kind})
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("model: schema spec %q has no attributes", spec)
	}
	return NewSchema(attrs...), nil
}

// MustParseSchema is ParseSchema for specs written in code (tests and
// generators); it panics on an invalid spec.
func MustParseSchema(spec string) *Schema {
	s, err := ParseSchema(spec)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// Name returns the name of the i-th attribute.
func (s *Schema) Name(i int) string { return s.attrs[i].Name }

// Names returns all attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// String renders the schema in MustParseSchema notation.
func (s *Schema) String() string {
	var b strings.Builder
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Name)
		b.WriteByte(':')
		b.WriteString(a.Kind.String())
	}
	return b.String()
}
