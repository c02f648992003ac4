package canon

import (
	"encoding/json"
	"math"
	"testing"
)

// The cursor's contract is "accept only what encoding/json would read the
// same way, decline the rest". The journal's and the wire's differential
// fuzzers hold it on whole records; this table holds it token by token.

func TestFloatMatchesJSONOrDeclines(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "7", "-12", "123456789012345", "1234567890123456", "37.9838", "-179.999999999",
		"1e-12", "1E+2", "5e-324", "1.7976931348623157e308", "0.1", "1e21", "1e-7",
		"1e400", "01", "-01", ".5", "1.", "1e", "1e+", "-", "+1", "0x10", "NaN", "", "1,", "1 ",
	} {
		d := New([]byte(lit))
		got := d.Float()
		var want float64
		err := json.Unmarshal([]byte(lit), &want)
		if !d.Done() {
			continue // declined: encoding/json decides
		}
		if err != nil {
			t.Errorf("Float accepts %q, encoding/json rejects it: %v", lit, err)
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float(%q) = %v, encoding/json reads %v", lit, got, want)
		}
	}
	for _, lit := range []string{"0", "-0", "37.9838", "1e-12", "1E+2", "123456789012345"} {
		d := New([]byte(lit))
		if d.Float(); !d.Done() {
			t.Errorf("Float declines canonical %q", lit)
		}
	}
}

func TestIntegersMatchJSONOrDecline(t *testing.T) {
	for _, lit := range []string{
		"0", "7", "-7", "-0", "60000", "999999999999999999", "1234567890123456789",
		"18446744073709551615", "-9223372036854775808", "07", "-", "", "1e3", "1.0", "+1", " 1",
	} {
		d := New([]byte(lit))
		got := d.Int()
		var want int
		if err := json.Unmarshal([]byte(lit), &want); d.Done() && (err != nil || got != want) {
			t.Errorf("Int(%q) = %d, encoding/json reads %d, %v", lit, got, want, err)
		}
		u := New([]byte(lit))
		gotU := u.Uint(math.MaxUint64)
		var wantU uint64
		if err := json.Unmarshal([]byte(lit), &wantU); u.Done() && (err != nil || gotU != wantU) {
			t.Errorf("Uint(%q) = %d, encoding/json reads %d, %v", lit, gotU, wantU, err)
		}
	}
	if d := New([]byte("256")); d.Uint(math.MaxUint8) != 256 || d.Done() {
		t.Error("Uint accepted a value over its max")
	}
	if d := New([]byte("-60000")); d.Int() != -60000 || !d.Done() {
		t.Error("Int declines a canonical negative")
	}
}

func TestStringsAreVerbatimOrDeclined(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		ok   bool
	}{
		{`""`, "", true},
		{`"alice"`, "alice", true},
		{`"a <b> & c's ~"`, "a <b> & c's ~", true}, // encoding/json reads raw HTML bytes as themselves
		{`"a\nb"`, "", false},                      // escape
		{`"a\"b"`, "", false},
		{"\"a\x7fb\"", "", false}, // DEL
		{"\"a\x1fb\"", "", false}, // control byte
		{`"Ω"`, "", false},        // non-ASCII
		{`"open`, "", false},
		{`alice`, "", false},
		{``, "", false},
	} {
		d := New([]byte(tc.in))
		got := d.Str()
		if d.Done() != tc.ok || got != tc.want {
			t.Errorf("Str(%q) = %q, done %v; want %q, %v", tc.in, got, d.Done(), tc.want, tc.ok)
		}
	}
}

// TestSticky pins the property the decoders' flat field lists rely on: after
// the first miss nothing is consumed and nothing succeeds.
func TestSticky(t *testing.T) {
	d := New([]byte(`{"a":1,"b":true}`))
	d.Expect(`{"a":`)
	if d.Uint(9) != 1 || !d.Has(`,"b":`) || !d.Bool() {
		t.Fatal("canonical prefix not read")
	}
	d.Expect(`]`) // miss
	if d.Has(`}`) || d.Done() {
		t.Error("cursor kept going after a miss")
	}
	if d.Str() != "" || d.Raw() != nil || d.Float() != 0 || d.Int() != 0 || d.Uint(9) != 0 || d.Bool() {
		t.Error("failed cursor produced a value")
	}
	f := New([]byte(`"x"`))
	f.Fail()
	if f.Str() != "" || f.Done() {
		t.Error("Fail did not stick")
	}
}
