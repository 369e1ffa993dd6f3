package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, ""},
		{S("abc"), KindString, "abc"},
		{I(-42), KindInt, "-42"},
		{F(2.5), KindFloat, "2.5"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() of %v = %q, want %q", c.v, got, c.str)
		}
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	if S("1").Key() == I(1).Key() {
		t.Error("string 1 and int 1 should have distinct keys")
	}
	if I(1).Key() == F(1).Key() {
		t.Error("int 1 and float 1 should have distinct keys")
	}
	if Null().Key() == S("").Key() {
		t.Error("null and empty string should have distinct keys")
	}
}

func TestCompareNumericAcrossKinds(t *testing.T) {
	if !I(2).Equal(F(2)) {
		t.Error("I(2) should equal F(2)")
	}
	if Compare(I(2), F(2.5)) != -1 {
		t.Error("I(2) < F(2.5)")
	}
	if Compare(F(3.5), I(3)) != 1 {
		t.Error("F(3.5) > I(3)")
	}
}

func TestCompareFloatsAgreeWithMixedNumerics(t *testing.T) {
	// Two floats compare exactly as a float against the equal int does: -0
	// equals +0 and NaN is neither below nor above any number.
	nan := math.NaN()
	for _, c := range []struct {
		a, b float64
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {2, 2, 0},
		{math.Copysign(0, -1), 0, 0},
		{nan, 1, 0}, {1, nan, 0}, {nan, nan, 0},
	} {
		if got := Compare(F(c.a), F(c.b)); got != c.want {
			t.Errorf("Compare(F(%v), F(%v)) = %d, want %d", c.a, c.b, got, c.want)
		}
		if c.b == math.Trunc(c.b) {
			if got := Compare(F(c.a), I(int64(c.b))); got != c.want {
				t.Errorf("Compare(F(%v), I(%v)) = %d, want %d", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestCompareNullOrdering(t *testing.T) {
	for _, v := range []Value{S("a"), I(0), F(-1), S("")} {
		if Compare(Null(), v) != -1 {
			t.Errorf("null should sort before %v", v)
		}
		if Compare(v, Null()) != 1 {
			t.Errorf("%v should sort after null", v)
		}
	}
	if Compare(Null(), Null()) != 0 {
		t.Error("null == null")
	}
}

func TestCompareStrings(t *testing.T) {
	if Compare(S("apple"), S("banana")) >= 0 {
		t.Error("apple < banana")
	}
	if Compare(S("x"), S("x")) != 0 {
		t.Error("x == x")
	}
}

func TestParse(t *testing.T) {
	if got := Parse("123", KindInt); got != I(123) {
		t.Errorf("Parse int = %v", got)
	}
	if got := Parse(" 2.5 ", KindFloat); got != F(2.5) {
		t.Errorf("Parse float = %v", got)
	}
	if got := Parse("abc", KindInt); got.Kind != KindNull {
		t.Errorf("Parse bad int should be null, got %v", got)
	}
	if got := Parse("hello", KindString); got != S("hello") {
		t.Errorf("Parse string = %v", got)
	}
}

func TestFloatCoercion(t *testing.T) {
	if S("3.5").Float() != 3.5 {
		t.Error("string 3.5 coerces to 3.5")
	}
	if S("junk").Float() != 0 {
		t.Error("junk coerces to 0")
	}
	if I(7).Float() != 7 {
		t.Error("int widens")
	}
	if Null().Float() != 0 {
		t.Error("null coerces to 0")
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null()
	case 1:
		b := make([]byte, r.Intn(8))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return S(string(b))
	case 2:
		return I(int64(r.Intn(200) - 100))
	default:
		return F(float64(r.Intn(200)-100) / 4)
	}
}

func TestCompareProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Antisymmetry and reflexivity over random values.
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry failed for %v vs %v", a, b)
		}
		if Compare(a, a) != 0 {
			t.Fatalf("reflexivity failed for %v", a)
		}
	}
	// Transitivity over random triples.
	for i := 0; i < 2000; i++ {
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity failed for %v, %v, %v", a, b, c)
		}
	}
}

// TestEqualIsCompareZero pins Equal to Compare's equality over every kind
// pair, the edge values (null, ±0, NaN, ±Inf, numeric strings) and random
// values.
func TestEqualIsCompareZero(t *testing.T) {
	edge := []Value{
		Null(), S(""), S("a"), S("b"), S("2"), S("2.0"), S("-0"), S("NaN"),
		I(0), I(2), I(-3), I(math.MaxInt64), F(0), F(math.Copysign(0, -1)),
		F(2), F(2.5), F(-3), F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)),
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		edge = append(edge, randomValue(r))
	}
	for _, a := range edge {
		for _, b := range edge[:40] {
			if a.Equal(b) != (Compare(a, b) == 0) || b.Equal(a) != (Compare(b, a) == 0) {
				t.Fatalf("%#v vs %#v: Equal %v, Compare %d", a, b, a.Equal(b), Compare(a, b))
			}
		}
	}
}

func TestValueKeyInjectiveOnStrings(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return S(a).Key() == S(b).Key()
		}
		return S(a).Key() != S(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntKeyRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return I(a).Key() == I(b).Key()
		}
		return I(a).Key() != I(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
