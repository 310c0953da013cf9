package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"wsnq/internal/series"
)

// decodeRecord decodes one recording line into rec. Round records —
// every line but the header and the run markers — go through
// jsonReader.round, a direct reader of their two-level shape: replay
// spends most of its time decoding them, and encoding/json's
// reflective decoder (a validation pass plus a per-field type walk)
// dominated it. It matches each field's key literal in the order the
// recorder writes the fields, sets the field through a switch on its
// index and parses an integer in the pass that checks its grammar;
// reflection only reads the struct tags, once, when the package loads.
// Header and run records go through encoding/json.
// A round record is decoded into the roundRecord rec.Round points to on
// entry, when it is set, so a reader can reuse one across lines.
func decodeRecord(line []byte, rec *fileRecord) error {
	rr := rec.Round
	*rec = fileRecord{}
	r := jsonReader{b: line}
	if r.byte('{') {
		if key, err := r.key(); err == nil && string(key) == "round" {
			if rr == nil {
				rr = &roundRecord{}
			}
			if err := r.round(rr); err != nil {
				return err
			}
			if !r.byte('}') || r.ws() < len(r.b) {
				return fmt.Errorf("round record: trailing data at offset %d", r.i)
			}
			rec.Round = rr
			return nil
		}
	}
	return json.Unmarshal(line, rec)
}

// schema is one struct's JSON shape: each field's JSON name, by field
// index, read from the struct tags so the recorder's encoding/json
// output and this decoder share one schema, and the key literal the
// recorder writes before the field's value, `"name":`.
type schema struct {
	names []string
	keys  [][]byte
}

func schemaOf(v any) *schema {
	t := reflect.TypeOf(v)
	s := &schema{names: make([]string, t.NumField()), keys: make([][]byte, t.NumField())}
	for i := range s.names {
		s.names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
		s.keys[i] = []byte(strconv.Quote(s.names[i]) + ":")
	}
	return s
}

var (
	roundFields = schemaOf(roundRecord{})
	pointFields = schemaOf(series.Point{})
)

// jsonReader reads the JSON subset round records use: objects with
// string keys whose values are objects, strings or numbers.
type jsonReader struct {
	b []byte
	i int
}

// ws skips whitespace and returns the new offset.
func (r *jsonReader) ws() int {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return r.i
		}
	}
	return r.i
}

// byte consumes c, after whitespace, and reports whether it was there.
func (r *jsonReader) byte(c byte) bool {
	// Recorder output has no whitespace: test c first, skip ws after.
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	if r.ws() < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// str reads a string literal. Recording keys are algorithm names, so
// a literal with escapes or non-ASCII bytes (which encoding/json
// validates as UTF-8) is rare and handed to encoding/json; a plain one
// is returned as a subslice of the line. The closing quote is found
// with bytes.IndexByte; only a literal whose bytes before it are not
// plain ASCII takes the byte-at-a-time scan.
func (r *jsonReader) str() ([]byte, error) {
	if !r.byte('"') {
		return nil, fmt.Errorf("expected a string at offset %d", r.i)
	}
	start, plain := r.i, true
	if n := bytes.IndexByte(r.b[start:], '"'); n >= 0 {
		lit := r.b[start : start+n]
		if plainASCII(lit) {
			r.i = start + n + 1
			return lit, nil
		}
	}
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '\\':
			plain = false
			r.i++
		case c >= utf8.RuneSelf:
			plain = false
		case c == '"':
			r.i++
			if plain {
				return r.b[start : r.i-1], nil
			}
			var s string
			err := json.Unmarshal(r.b[start-1:r.i], &s)
			return []byte(s), err
		case c < 0x20:
			return nil, fmt.Errorf("control character in string at offset %d", r.i)
		}
	}
	return nil, fmt.Errorf("unterminated string")
}

// plainASCII reports whether b is ASCII with no control character and
// no backslash: string literal contents that decode to themselves.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
			return false
		}
	}
	return true
}

// key reads an object key and its colon.
func (r *jsonReader) key() ([]byte, error) {
	k, err := r.str()
	if err == nil && !r.byte(':') {
		err = fmt.Errorf("expected ':' at offset %d", r.i)
	}
	return k, err
}

// int reads an integer literal, checking its grammar and accumulating
// its value in one pass. A fraction or exponent is rejected, as
// encoding/json rejects one for an integer field. A literal of 19 or
// more digits, which may overflow, is handed to strconv.
func (r *jsonReader) int() (int64, error) {
	start := r.ws()
	b, i := r.b, start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	lead := i
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		n = n*10 + int64(d)
	}
	r.i = i
	if digits := i - lead; digits == 0 || (digits > 1 && b[lead] == '0') {
		return 0, fmt.Errorf("bad number at offset %d", start)
	} else if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, fmt.Errorf("not an integer at offset %d", start)
	} else if digits > 18 {
		return strconv.ParseInt(string(b[start:i]), 10, 64)
	}
	if neg {
		n = -n
	}
	return n, nil
}

// float reads a number literal as encoding/json reads it into a
// float64. The pass that checks the literal's grammar (strconv alone
// also accepts forms such as "01", ".5" and "1.") also accumulates its
// significant digits and decimal exponent, so a literal of at most 19
// significant digits converts without a second scan (eiselLemire); any
// other literal, or one the algorithm cannot round with certainty, is
// handed to strconv.ParseFloat.
func (r *jsonReader) float() (float64, error) {
	start := r.ws()
	b, i := r.b, start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	// nd counts man's significant digits; exp10 scales man to the
	// literal; fast stays true while man holds every nonzero digit. In
	// the digit loops a byte below '0' wraps above 9 in the unsigned
	// subtraction.
	nd, exp10, fast := 0, 0, true
	lead := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		switch {
		case nd == 19:
			fast = false
		case man != 0 || b[i] != '0':
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
	}
	if n := i - lead; n == 0 || (n > 1 && b[lead] == '0') {
		return 0, fmt.Errorf("bad number at offset %d", start)
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			switch {
			case nd == 19:
				fast = false
			case man != 0 || b[i] != '0':
				man = man*10 + uint64(b[i]-'0')
				nd++
				exp10--
			default:
				exp10-- // a leading zero of the fraction
			}
		}
		if i == frac {
			return 0, fmt.Errorf("bad number at offset %d", start)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1<<16 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, fmt.Errorf("bad number at offset %d", start)
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	r.i = i
	if fast {
		if f, ok := eiselLemire(man, exp10, neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(b[start:i]), 64)
}

// open consumes an object's '{' and reports whether a field follows.
func (r *jsonReader) open() (bool, error) {
	if !r.byte('{') {
		return false, fmt.Errorf("expected an object at offset %d", r.i)
	}
	return !r.byte('}'), nil
}

// more consumes the ',' or '}' after an object's field and reports
// whether another field follows.
func (r *jsonReader) more() (bool, error) {
	if r.byte(',') {
		return true, nil
	}
	if r.byte('}') {
		return false, nil
	}
	return false, fmt.Errorf("expected ',' or '}' at offset %d", r.i)
}

// field reads an object key and its colon and returns the index of
// the schema field it names. The recorder writes the fields in struct
// order, omitting empty ones, with no whitespace, so the key literals
// of the fields from next on are tried first; any other key is read
// as a string and looked up.
func (r *jsonReader) field(s *schema, next int) (int, error) {
	rest := r.b[r.i:]
	for i := next; i < len(s.keys); i++ {
		if bytes.HasPrefix(rest, s.keys[i]) {
			r.i += len(s.keys[i])
			return i, nil
		}
	}
	key, err := r.key()
	if err != nil {
		return 0, err
	}
	for i, name := range s.names {
		if name == string(key) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%q: unknown field", key)
}

// round reads a roundRecord object into rr, overwriting it. A key equal
// to rr's previous one keeps its string, so a reader that reuses rr
// across a run's lines allocates no key per line.
func (r *jsonReader) round(rr *roundRecord) error {
	prev := rr.Key
	*rr = roundRecord{}
	more, err := r.open()
	for next := 0; more; more, err = r.more() {
		i, ferr := r.field(roundFields, next)
		if ferr != nil {
			return ferr
		}
		next = i + 1
		if ferr := r.roundValue(rr, i, prev); ferr != nil {
			return fmt.Errorf("%q: %w", roundFields.names[i], ferr)
		}
	}
	return err
}

// roundValue reads the value of rr's field i, a roundFields index.
// A key equal to prev keeps prev's string.
func (r *jsonReader) roundValue(rr *roundRecord, i int, prev string) error {
	var n *int
	switch i {
	case 0: // key
		k, err := r.str()
		if rr.Key = prev; string(k) != prev {
			rr.Key = string(k)
		}
		return err
	case 1:
		n = &rr.Answer
	case 2:
		n = &rr.K
	case 3:
		n = &rr.RankErr
	case 4:
		return r.point(&rr.Point)
	default:
		return fmt.Errorf("no reader for round field %d", i)
	}
	v, err := r.int()
	*n = int(v)
	return err
}

// point reads a series.Point object, parsing each number exactly as
// encoding/json would for the field's type.
func (r *jsonReader) point(p *series.Point) error {
	more, err := r.open()
	for next := 0; more; more, err = r.more() {
		i, ferr := r.field(pointFields, next)
		if ferr != nil {
			return ferr
		}
		next = i + 1
		if ferr := r.pointValue(p, i); ferr != nil {
			return fmt.Errorf("%q: %w", pointFields.names[i], ferr)
		}
	}
	return err
}

// pointValue reads the number for p's field i, a pointFields index,
// as an integer or a float as the field's type asks. The cases follow
// series.Point's field order; TestPointValueSetsItsField pins each one
// to the field its struct tag names.
func (r *jsonReader) pointValue(p *series.Point, i int) (err error) {
	var (
		n   *int
		n64 *int64
		x   *float64
	)
	switch i {
	case 0:
		n = &p.Round
	case 1:
		n = &p.Span
	case 2:
		n = &p.Frames
	case 3:
		n = &p.Messages
	case 4:
		x = &p.Joules
	case 5:
		n = &p.RankError
	case 6:
		n = &p.Refines
	case 7:
		n = &p.Retries
	case 8:
		n = &p.Orphans
	case 9:
		n = &p.ValidationBits
	case 10:
		n = &p.RefinementBits
	case 11:
		n = &p.ShippingBits
	case 12:
		n = &p.OtherBits
	case 13:
		x = &p.HotJoules
	case 14:
		n = &p.Deficit
	case 15:
		n = &p.Staleness
	case 16:
		x = &p.StepMs
	case 17:
		x = &p.SLOBurn
	case 18:
		x = &p.SLOSpend
	case 19:
		n = &p.Adapts
	case 20:
		n64 = &p.HeapLiveBytes
	case 21:
		n = &p.Goroutines
	case 22:
		x = &p.GCPauseMs
	case 23:
		n64 = &p.AllocBytes
	case 24:
		n64 = &p.AllocObjects
	default:
		return fmt.Errorf("no reader for point field %d", i)
	}
	if x != nil {
		*x, err = r.float()
		return err
	}
	v, err := r.int()
	if n != nil {
		*n = int(v)
	} else {
		*n64 = v
	}
	return err
}
