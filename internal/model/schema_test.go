package model

import "testing"

func TestMustParseSchema(t *testing.T) {
	s := MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if s.Attr(0).Kind != KindString || s.Attr(0).Name != "name" {
		t.Errorf("attr 0 = %+v", s.Attr(0))
	}
	if s.Attr(1).Kind != KindInt {
		t.Errorf("zipcode kind = %v", s.Attr(1).Kind)
	}
	if s.Attr(5).Kind != KindFloat {
		t.Errorf("rate kind = %v", s.Attr(5).Kind)
	}
}

func TestSchemaIndexCaseInsensitive(t *testing.T) {
	s := MustParseSchema("Name,ZipCode:int")
	if i, ok := s.Index("zipcode"); !ok || i != 1 {
		t.Errorf("Index(zipcode) = %d,%v", i, ok)
	}
	if i, ok := s.Index("NAME"); !ok || i != 0 {
		t.Errorf("Index(NAME) = %d,%v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("missing attribute should not resolve")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute should panic")
		}
	}()
	NewSchema(Attribute{Name: "a"}, Attribute{Name: "A"})
}

func TestSchemaStringRoundTrip(t *testing.T) {
	spec := "a:int,b:string,c:float"
	s := MustParseSchema(spec)
	s2 := MustParseSchema(s.String())
	if s2.String() != s.String() {
		t.Errorf("round trip: %s vs %s", s.String(), s2.String())
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := MustParseSchema("a")
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on missing attr should panic")
		}
	}()
	s.MustIndex("nope")
}

// TestParseSchemaRejectsBadSpecs: a schema spec is user input (the CLI's
// -schema, the service's create request, a stored replica plan), so every
// malformed one is an error, never a panic.
func TestParseSchemaRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"a:blob", "a,b,A", "", " , ", "a,:int"} {
		if s, err := ParseSchema(spec); err == nil {
			t.Errorf("ParseSchema(%q) = %v, want an error", spec, s)
		}
	}
	if _, err := ParseSchema(" a:int , b "); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	MustParseSchema("a:decimal128")
}
