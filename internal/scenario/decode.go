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
// dominated it. Header and run records go through encoding/json.
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

// pointNames lists each series.Point field's JSON name, by field
// index. It is read from the struct tags, so the recorder's
// encoding/json output and this decoder share one schema.
var pointNames = func() []string {
	t := reflect.TypeOf(series.Point{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}()

// pointKeys holds each pointNames entry as the key literal the
// recorder writes before the field's value, `"name":`.
var pointKeys = func() [][]byte {
	keys := make([][]byte, len(pointNames))
	for i, name := range pointNames {
		keys[i] = []byte(strconv.Quote(name) + ":")
	}
	return keys
}()

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

// number returns the next number literal, enforcing JSON's number
// grammar (strconv alone also accepts forms such as "01", ".5" and
// "1.").
func (r *jsonReader) number() ([]byte, error) {
	start := r.ws()
	digits := func() int {
		n := 0
		for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
			r.i++
			n++
		}
		return n
	}
	if r.i < len(r.b) && r.b[r.i] == '-' {
		r.i++
	}
	lead := r.i
	if n := digits(); n == 0 || (n > 1 && r.b[lead] == '0') {
		return nil, fmt.Errorf("bad number at offset %d", start)
	}
	if r.i < len(r.b) && r.b[r.i] == '.' {
		r.i++
		if digits() == 0 {
			return nil, fmt.Errorf("bad number at offset %d", start)
		}
	}
	if r.i < len(r.b) && (r.b[r.i] == 'e' || r.b[r.i] == 'E') {
		r.i++
		if r.i < len(r.b) && (r.b[r.i] == '+' || r.b[r.i] == '-') {
			r.i++
		}
		if digits() == 0 {
			return nil, fmt.Errorf("bad number at offset %d", start)
		}
	}
	return r.b[start:r.i], nil
}

// int reads an integer literal. One short enough that it cannot
// overflow is parsed in place; anything else goes to strconv, which
// rejects fractions and exponents exactly as encoding/json does for an
// integer field.
func (r *jsonReader) int() (int64, error) {
	b, err := r.number()
	if err != nil {
		return 0, err
	}
	digits := b
	if digits[0] == '-' {
		digits = digits[1:]
	}
	var n int64
	for i, c := range digits {
		if c < '0' || c > '9' || i == 18 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(b) {
		n = -n
	}
	return n, nil
}

// object reads an object, calling field for each key; field must
// consume the value.
func (r *jsonReader) object(field func(key []byte) error) error {
	if !r.byte('{') {
		return fmt.Errorf("expected an object at offset %d", r.i)
	}
	if r.byte('}') {
		return nil
	}
	for {
		k, err := r.key()
		if err != nil {
			return err
		}
		if err := field(k); err != nil {
			return fmt.Errorf("%q: %w", k, err)
		}
		if r.byte('}') {
			return nil
		}
		if !r.byte(',') {
			return fmt.Errorf("expected ',' or '}' at offset %d", r.i)
		}
	}
}

// round reads a roundRecord object into rr, overwriting it. A key equal
// to rr's previous one keeps its string, so a reader that reuses rr
// across a run's lines allocates no key per line.
func (r *jsonReader) round(rr *roundRecord) error {
	prev := rr.Key
	*rr = roundRecord{}
	return r.object(func(key []byte) (err error) {
		var n int64
		switch string(key) {
		case "key":
			var k []byte
			k, err = r.str()
			if rr.Key = prev; string(k) != prev {
				rr.Key = string(k)
			}
		case "answer":
			n, err = r.int()
			rr.Answer = int(n)
		case "k":
			n, err = r.int()
			rr.K = int(n)
		case "rank_err":
			n, err = r.int()
			rr.RankErr = int(n)
		case "point":
			err = r.point(&rr.Point)
		default:
			err = fmt.Errorf("unknown round field")
		}
		return err
	})
}

// point reads a series.Point object, parsing each number exactly as
// encoding/json would for the field's type.
func (r *jsonReader) point(p *series.Point) error {
	if !r.byte('{') {
		return fmt.Errorf("expected an object at offset %d", r.i)
	}
	if r.byte('}') {
		return nil
	}
	v := reflect.ValueOf(p).Elem()
	next := 0
	for {
		i, err := r.pointKey(next)
		if err != nil {
			return err
		}
		next = i + 1
		if err := r.pointValue(v.Field(i)); err != nil {
			return fmt.Errorf("%q: %w", pointNames[i], err)
		}
		if r.byte('}') {
			return nil
		}
		if !r.byte(',') {
			return fmt.Errorf("expected ',' or '}' at offset %d", r.i)
		}
	}
}

// pointKey reads a Point field's key and colon and returns the field's
// index. The recorder writes the fields in struct order, omitting empty
// ones, with no whitespace, so the key literals of the fields from next
// on are tried first; any other key is read as a string and looked up.
func (r *jsonReader) pointKey(next int) (int, error) {
	rest := r.b[r.i:]
	for i := next; i < len(pointKeys); i++ {
		if bytes.HasPrefix(rest, pointKeys[i]) {
			r.i += len(pointKeys[i])
			return i, nil
		}
	}
	key, err := r.key()
	if err != nil {
		return 0, err
	}
	for i, name := range pointNames {
		if name == string(key) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%q: unknown point field", key)
}

// pointValue reads the number for Point field f.
func (r *jsonReader) pointValue(f reflect.Value) error {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		n, err := r.int()
		f.SetInt(n)
		return err
	case reflect.Float64:
		b, err := r.number()
		if err != nil {
			return err
		}
		x, err := strconv.ParseFloat(string(b), 64)
		f.SetFloat(x)
		return err
	default:
		return fmt.Errorf("unsupported point field kind %v", f.Kind())
	}
}
