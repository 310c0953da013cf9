package scenario

import (
	"encoding/json"
	"hash"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"wsnq/internal/adapt"
	"wsnq/internal/alert"
	"wsnq/internal/level"
	"wsnq/internal/series"
	"wsnq/internal/slo"
)

// encoder appends the records a recording and Outcome.Hash write —
// series snapshots and points, verdicts, alert events, adapt decisions,
// SLO statuses and events, and round-record lines — as exactly the
// bytes encoding/json writes for them: the same field order and
// omitempty rules, shortest floats with encoding/json's exponent form,
// and HTML-escaped strings. It is the write-side twin of decodeRecord.
// Outcome.Hash spent most of its time in encoding/json's reflective
// encoder, and the hash is recomputed on every replay.
//
// A float that encoding/json rejects (NaN or ±Inf) sets err to the
// error json.Marshal returns for it; the bytes written so far are then
// meaningless, and the caller truncates them.
type encoder struct {
	b   []byte
	err error

	// spill, when set, takes b between a snapshot's points once b holds
	// a full chunk, so a long line is not gathered whole. spilled
	// records that part of the current line went to spill.
	spill   io.Writer
	spilled bool
}

// float appends f as encoding/json writes a float64.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// intField appends a key literal such as `,"frames":` and then n.
func (e *encoder) intField(key string, n int64) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, n, 10)
}

func (e *encoder) floatField(key string, f float64) {
	e.b = append(e.b, key...)
	e.float(f)
}

func (e *encoder) strField(key, s string) {
	e.b = append(e.b, key...)
	e.str(s)
}

// level appends l as its MarshalText name.
func (e *encoder) level(key string, l level.Level) { e.strField(key, l.String()) }

// str appends s as a JSON string literal, escaped as encoding/json
// escapes it with HTML escaping on: '"', '\\', control characters, '<',
// '>' and '&' are escaped, invalid UTF-8 becomes \ufffd, and U+2028 and
// U+2029 are escaped.
func (e *encoder) str(s string) {
	const hex = "0123456789abcdef"
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '"', '\\':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

// point appends a series.Point in struct order, omitting the empty
// omitempty fields.
func (e *encoder) point(p *series.Point) {
	e.intField(`{"round":`, int64(p.Round))
	e.intField(`,"span":`, int64(p.Span))
	e.intField(`,"frames":`, int64(p.Frames))
	e.intField(`,"messages":`, int64(p.Messages))
	e.floatField(`,"joules":`, p.Joules)
	e.intField(`,"rank_error":`, int64(p.RankError))
	e.intField(`,"refines":`, int64(p.Refines))
	e.intField(`,"retries":`, int64(p.Retries))
	e.intField(`,"orphans":`, int64(p.Orphans))
	e.intField(`,"validation_bits":`, int64(p.ValidationBits))
	e.intField(`,"refinement_bits":`, int64(p.RefinementBits))
	e.intField(`,"shipping_bits":`, int64(p.ShippingBits))
	e.intField(`,"other_bits":`, int64(p.OtherBits))
	e.floatField(`,"hot_joules":`, p.HotJoules)
	e.omitInt(`,"deficit":`, int64(p.Deficit))
	e.omitInt(`,"staleness":`, int64(p.Staleness))
	e.omitFloat(`,"step_ms":`, p.StepMs)
	e.omitFloat(`,"slo_burn":`, p.SLOBurn)
	e.omitFloat(`,"slo_spend":`, p.SLOSpend)
	e.omitInt(`,"adapts":`, int64(p.Adapts))
	e.omitInt(`,"heap_live_bytes":`, p.HeapLiveBytes)
	e.omitInt(`,"goroutines":`, int64(p.Goroutines))
	e.omitFloat(`,"gc_pause_ms":`, p.GCPauseMs)
	e.omitInt(`,"alloc_bytes":`, p.AllocBytes)
	e.omitInt(`,"alloc_objects":`, p.AllocObjects)
	e.b = append(e.b, '}')
}

func (e *encoder) omitInt(key string, n int64) {
	if n != 0 {
		e.intField(key, n)
	}
}

// omitFloat follows encoding/json's emptiness test, f == 0, so -0 is
// omitted too and NaN is not.
func (e *encoder) omitFloat(key string, f float64) {
	if f != 0 {
		e.floatField(key, f)
	}
}

// snapshot appends a series.Snapshot; nil Points encode as null.
func (e *encoder) snapshot(s *series.Snapshot) {
	e.intField(`{"stride":`, int64(s.Stride))
	e.intField(`,"rounds":`, int64(s.Rounds))
	if s.Points == nil {
		e.b = append(e.b, `,"points":null}`...)
		return
	}
	e.b = append(e.b, `,"points":[`...)
	for i := range s.Points {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.point(&s.Points[i])
		if e.spill != nil && len(e.b) >= digestChunk {
			e.spill.Write(e.b)
			e.b, e.spilled = e.b[:0], true
		}
	}
	e.b = append(e.b, "]}"...)
}

func (e *encoder) verdict(v *Verdict) {
	e.strField(`{"key":`, v.Key)
	e.intField(`,"round":`, int64(v.Round))
	e.intField(`,"answer":`, int64(v.Answer))
	e.intField(`,"k":`, int64(v.K))
	e.intField(`,"rank_err":`, int64(v.RankErr))
	e.b = append(e.b, '}')
}

func (e *encoder) alert(ev *alert.Event) {
	e.strField(`{"rule":`, ev.Rule)
	e.strField(`,"key":`, ev.Key)
	e.intField(`,"round":`, int64(ev.Round))
	e.level(`,"level":`, ev.Level)
	e.level(`,"prev":`, ev.Prev)
	e.floatField(`,"value":`, ev.Value)
	e.omitFloat(`,"threshold":`, ev.Threshold)
	e.strField(`,"message":`, ev.Message)
	e.b = append(e.b, '}')
}

func (e *encoder) decision(d *adapt.Decision) {
	e.strField(`{"key":`, d.Key)
	e.intField(`,"round":`, int64(d.Round))
	e.strField(`,"trigger":`, d.Trigger)
	e.level(`,"level":`, d.Level)
	e.strField(`,"action":`, d.Action)
	e.b = append(e.b, '}')
}

func (e *encoder) sloStatus(st *slo.Status) {
	e.strField(`{"slo":`, st.SLO)
	e.strField(`,"key":`, st.Key)
	e.strField(`,"signal":`, st.Signal)
	e.intField(`,"round":`, int64(st.Round))
	e.intField(`,"rounds":`, int64(st.Rounds))
	e.intField(`,"bad":`, int64(st.Bad))
	e.floatField(`,"budget":`, st.Budget)
	e.floatField(`,"spend":`, st.Spend)
	e.floatField(`,"burn_fast":`, st.BurnFast)
	e.floatField(`,"burn_slow":`, st.BurnSlow)
	e.floatField(`,"burn":`, st.Burn)
	e.level(`,"level":`, st.Level)
	e.intField(`,"since":`, int64(st.Since))
	e.b = append(e.b, '}')
}

func (e *encoder) sloEvent(ev *slo.Event) {
	e.strField(`{"slo":`, ev.SLO)
	e.strField(`,"key":`, ev.Key)
	e.intField(`,"round":`, int64(ev.Round))
	e.level(`,"level":`, ev.Level)
	e.level(`,"prev":`, ev.Prev)
	e.floatField(`,"burn":`, ev.Burn)
	e.floatField(`,"spend":`, ev.Spend)
	e.strField(`,"message":`, ev.Message)
	if x := ev.Exemplar; x != nil {
		e.intField(`,"exemplar":{"from_round":`, int64(x.FromRound))
		e.intField(`,"to_round":`, int64(x.ToRound))
		e.omitInt(`,"offset":`, x.Offset)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

// round appends the recording line of a round record, newline
// included, as json.Encoder writes fileRecord{Round: rr}.
func (e *encoder) round(rr *roundRecord) {
	e.strField(`{"round":{"key":`, rr.Key)
	e.intField(`,"answer":`, int64(rr.Answer))
	e.intField(`,"k":`, int64(rr.K))
	e.intField(`,"rank_err":`, int64(rr.RankErr))
	e.b = append(e.b, `,"point":`...)
	e.point(&rr.Point)
	e.b = append(e.b, "}}\n"...)
}

// digestChunk is how many bytes Outcome.Hash gathers before writing
// them to the digest.
const digestChunk = 32 << 10

// digest writes Outcome.Hash's lines — a tag, then a payload encoded
// as json.Marshal encodes it — to h through the encoder's buffer.
type digest struct {
	encoder
	h hash.Hash
	// spoiled records a payload json.Marshal rejects, part of which
	// had already been spilled to h: the digest is then wrong.
	spoiled bool
}

// begin writes a line's tag and returns where its payload starts.
func (d *digest) begin(tag string) int {
	d.b = append(d.b, tag...)
	return len(d.b)
}

// end closes the line whose payload starts at payload. A payload that
// json.Marshal rejects is dropped, leaving the tag alone on its line
// (the digest has always hashed the nil bytes the error came with),
// and a full chunk goes to the digest.
func (d *digest) end(payload int) {
	if d.err != nil {
		if d.spilled {
			d.spoiled, payload = true, 0
		}
		d.b, d.err = d.b[:payload], nil
	}
	d.spilled = false
	d.b = append(d.b, '\n')
	if len(d.b) >= digestChunk {
		d.h.Write(d.b)
		d.b = d.b[:0]
	}
}
