// Package canon is the strict cursor behind the tree's two hand-written JSON
// decoders — the journal's record codec and the wire's frame codec. Both
// accept exactly the canonical form their own encoder writes (keys in struct
// order, no whitespace, no escapes) and hand everything else to
// encoding/json, so the canonical number and string rules live here, once.
// The callers' golden files and differential fuzzers (FuzzRecordCodec,
// FuzzFrameDecode) hold every rule below to what json.Unmarshal does.
package canon

import (
	"math"
	"strconv"
)

// Dec is a cursor over one payload. It is sticky: the first byte that is not
// canonical form marks it failed, every later call is a no-op, and the caller
// checks Done once at the end — so a decoder's field list reads as the format
// does.
type Dec struct {
	b   []byte
	i   int
	bad bool
}

// New starts a cursor at the beginning of b. Strings are copied out of b;
// Raw results point into it.
func New(b []byte) Dec { return Dec{b: b} }

// Done reports whether the whole payload was consumed as canonical form.
func (d *Dec) Done() bool { return !d.bad && d.i == len(d.b) }

// Fail marks the payload as not canonical, for a caller that parsed a token
// (Raw) further and did not like it.
func (d *Dec) Fail() { d.bad = true }

// Has consumes lit if the payload continues with it.
func (d *Dec) Has(lit string) bool {
	if d.bad || len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// Expect is Has for a literal that must be there.
func (d *Dec) Expect(lit string) {
	if !d.Has(lit) {
		d.bad = true
	}
}

// Raw reads a quoted string with no escapes in it and returns the bytes
// between the quotes, still in the payload. Raw bytes json.Unmarshal would
// pass through or repair (non-ASCII, invalid UTF-8) are declined too.
func (d *Dec) Raw() []byte {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.bad = true
		return nil
	}
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return d.b[start:j]
		case c < 0x20 || c >= 0x7f || c == '\\':
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

// Str is Raw, copied out.
func (d *Dec) Str() string { return string(d.Raw()) }

// digits reads a JSON integer part — 0, or a non-zero digit followed by
// digits — of at most 18 digits, so the value fits every integer type below
// without an overflow check.
func (d *Dec) digits() (n uint64) {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 && d.i-start <= 18 {
		n = n*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	if w := d.i - start; w == 0 || w > 18 || (w > 1 && d.b[start] == '0') {
		d.bad = true
	}
	return n
}

// Uint reads an unsigned integer no larger than max.
func (d *Dec) Uint(max uint64) uint64 {
	if d.bad {
		return 0
	}
	n := d.digits()
	if n > max {
		d.bad = true
	}
	return n
}

// Int reads a signed integer that fits an int.
func (d *Dec) Int() int {
	if d.bad {
		return 0
	}
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	n := d.digits()
	if n > math.MaxInt { // a 32-bit int: encoding/json reports the overflow
		d.bad = true
	}
	if neg {
		return -int(n)
	}
	return int(n)
}

// Float reads a JSON number literal and converts it as json.Unmarshal does,
// with strconv.ParseFloat; a literal ParseFloat rejects (out of range) is
// declined so that encoding/json reports it.
func (d *Dec) Float() float64 {
	if d.bad {
		return 0
	}
	start := d.i
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	intStart := d.i
	d.digitRun()
	if w := d.i - intStart; w > 1 && d.b[intStart] == '0' {
		d.bad = true
	}
	whole := true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		whole = false
		d.i++
		d.digitRun()
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		whole = false
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		d.digitRun()
	}
	if d.bad {
		return 0
	}
	if whole && d.i-intStart <= 15 {
		// An integer a float64 holds exactly: most coordinates and rewards.
		var n uint64
		for _, c := range d.b[intStart:d.i] {
			n = n*10 + uint64(c-'0')
		}
		f := float64(n)
		if neg {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// digitRun reads one or more digits.
func (d *Dec) digitRun() {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	if d.i == start {
		d.bad = true
	}
}

// Bool reads true or false.
func (d *Dec) Bool() bool {
	if d.Has(`true`) {
		return true
	}
	d.Expect(`false`)
	return false
}
