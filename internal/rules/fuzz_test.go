package rules

import (
	"testing"

	"bigdansing/internal/datagen"
)

// FuzzParseDC feeds arbitrary rule text through ParseDC and, when it parses,
// compiles it against the Tax schema. Neither step may panic on any input: a
// DC spec arrives from the command line and from the service's create body.
func FuzzParseDC(f *testing.F) {
	for _, spec := range []string{
		"t1.salary > t2.salary & t1.rate < t2.rate",
		"t1.zipcode = t2.zipcode & t1.city != t2.city",
		"t1.state = 'NY' & t1.salary < 1000.5",
		"t1.rate >= t1.salary",
		"t2.city <> \"x\" & & t1.zipcode == -3",
		"t3.salary > t2.salary",
		"t1.nosuch < t2.rate",
	} {
		f.Add(spec)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, spec string) {
		dc, err := ParseDC("fz", spec)
		if err != nil {
			return
		}
		_ = dc.String()
		_, _ = dc.Compile(schema)
	})
}

// FuzzParseFD feeds arbitrary rule text through ParseFD and, when it parses,
// renders it and compiles it against the Tax schema. No step may panic.
func FuzzParseFD(f *testing.F) {
	for _, spec := range []string{
		"zipcode -> city",
		"zipcode, state -> city, rate",
		"zipcode -> zipcode",
		" , -> city",
		"nosuch -> city",
		"a -> b -> c",
	} {
		f.Add(spec)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, spec string) {
		fd, err := ParseFD("fz", spec)
		if err != nil {
			return
		}
		_ = fd.String()
		_, _ = fd.Compile(schema)
	})
}

// FuzzParseCFD feeds arbitrary rule text through ParseCFD and, when it
// parses, compiles it against the Tax schema. Neither step may panic.
func FuzzParseCFD(f *testing.F) {
	for _, spec := range []string{
		"zipcode -> city | 90210 => LA ; _ => _",
		"zipcode, state -> city | _, CA => _ ; 10011, NY => NY",
		"zipcode -> city | ; ;",
		"zipcode -> city | 1, 2 => 3",
		"zipcode -> city | => ",
		"nosuch -> city | _ => _",
	} {
		f.Add(spec)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, spec string) {
		cfd, err := ParseCFD("fz", spec)
		if err != nil {
			return
		}
		_, _ = cfd.Compile(schema)
	})
}
