package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wsnq/internal/series"
)

// TestDecodeRecordMatchesEncodingJSON: on every line of every committed
// recording, the round-record reader decodes exactly what encoding/json
// decodes.
func TestDecodeRecordMatchesEncodingJSON(t *testing.T) {
	files, err := filepath.Glob("../../testdata/recordings/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed recordings found (%v)", err)
	}
	rounds := 0
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), maxRecordBytes)
		for line := 1; sc.Scan(); line++ {
			var got, want fileRecord
			if err := decodeRecord(sc.Bytes(), &got); err != nil {
				t.Fatalf("%s:%d: %v", name, line, err)
			}
			if err := json.Unmarshal(sc.Bytes(), &want); err != nil {
				t.Fatalf("%s:%d: %v", name, line, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:%d: decoded %+v, encoding/json %+v", name, line, got, want)
			}
			if got.Round != nil {
				rounds++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if rounds == 0 {
		t.Fatal("recordings hold no round records")
	}
}

// TestDecodeRoundEveryPointField: a round record with every Point field
// set (escaped key, extreme floats) round-trips through the recorder's
// encoder and the round-record reader — a Point field of a kind the
// reader cannot parse fails here.
func TestDecodeRoundEveryPointField(t *testing.T) {
	want := roundRecord{Key: "fleet/\"q\"<1>", Answer: -3, K: 7, RankErr: 2}
	v := reflect.ValueOf(&want.Point).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat([]float64{0.1, 1e-300, math.MaxFloat64, -2.5e21}[i%4])
		default:
			f.SetInt([]int64{math.MinInt64, math.MaxInt64, -1, int64(i) * 1e9}[i%4])
		}
	}
	line, err := json.Marshal(fileRecord{Round: &want})
	if err != nil {
		t.Fatal(err)
	}
	var got fileRecord
	if err := decodeRecord(line, &got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if got.Round == nil || !reflect.DeepEqual(*got.Round, want) {
		t.Fatalf("decoded %+v, want %+v", got.Round, want)
	}
}

func TestDecodeRoundRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		`{"round":{"key":"IQ","answer":1`,
		`{"round":{"key":"IQ","answer":1.5}}`,
		`{"round":{"key":"IQ","answer":+1}}`,
		`{"round":{"key":"IQ","answer":01}}`,
		`{"round":{"key":"IQ","answer":1e2}}`,
		`{"round":{"key":"IQ","answer":9223372036854775808}}`,
		`{"round":{"key":"IQ","bogus":1}}`,
		`{"round":{"key":"IQ","point":{"round":1,"nope":2}}}`,
		`{"round":{"key":"IQ","point":{"joules":"x"}}}`,
		`{"round":{"key":"IQ"}} trailing`,
		`{"round":{"key":"I` + "\x01" + `Q"}}`,
	} {
		var rec fileRecord
		if err := decodeRecord([]byte(line), &rec); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	var p series.Point
	if err := (&jsonReader{b: []byte(`{"round": 4 , "joules" :0.5}`)}).point(&p); err != nil || p.Round != 4 || p.Joules != 0.5 {
		t.Errorf("whitespace-separated point: %+v, %v", p, err)
	}
}

// TestPointValueSetsItsField: the reader's switch on a Point field's
// index writes the field that index's struct tag names, and no other.
func TestPointValueSetsItsField(t *testing.T) {
	for i, name := range pointFields.names {
		var p series.Point
		if err := (&jsonReader{b: []byte(`{"` + name + `":7}`)}).point(&p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := reflect.ValueOf(p)
		for j := 0; j < v.NumField(); j++ {
			got, want := v.Field(j), reflect.Zero(v.Field(j).Type())
			if i == j {
				want = reflect.ValueOf(7).Convert(got.Type())
			}
			if !got.Equal(want) {
				t.Errorf("%q set field %s to %v", name, v.Type().Field(j).Name, got)
			}
		}
	}
}

// chaosRoundLine is a round record as the chaos benchmark scenario's
// recorder writes it, with every point column a faulty, adapting run
// fills.
const chaosRoundLine = `{"round":{"key":"ADAPT","answer":27275,"k":100,"rank_err":7,"point":{"round":120,"span":1,"frames":354,"messages":158,"joules":0.00744434400000038,"rank_error":7,"refines":0,"retries":57,"orphans":200,"validation_bits":77168,"refinement_bits":0,"shipping_bits":0,"other_bits":0,"hot_joules":0.014148260000000083,"deficit":200,"staleness":1,"adapts":1}}}`

// BenchmarkDecodeRecord measures the round-record reader alone: one
// chaos-shaped line decoded into a reused roundRecord, as Replay
// decodes every round line.
func BenchmarkDecodeRecord(b *testing.B) {
	line := []byte(chaosRoundLine)
	var rec fileRecord
	scratch := new(roundRecord)
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		rec.Round = scratch
		if err := decodeRecord(line, &rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFloatMatchesParseFloat: the round-record reader's float converter
// returns what strconv.ParseFloat returns, bit for bit and error for
// error, on the shortest and fixed-precision forms of random floats
// across the power table and beyond it, on random decimal literals of
// up to 22 digits, and on hand-picked edge literals.
func TestFloatMatchesParseFloat(t *testing.T) {
	lits := []string{"0", "-0", "0.0", "-0.000", "1", "-1", "0.5", "1e22", "1e-22", "1e23",
		"9007199254740993", "4503599627370496.5", "0.1", "123.456e3", "9.5E+2", "2e-05",
		"1e005", "0.00018263600000000002", "1e-64", "1e64", "1e-65", "1e65",
		"17976931348623157e292", "2.2250738585072014e-308", "5e-324", "1e400",
		"12345678901234567890", "1234567890123456789", "0.12345678901234567891"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		x := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if i%4 != 0 {
			// Mostly magnitudes inside and around the power table.
			x = rng.Float64() * math.Pow(10, float64(rng.Intn(150)-75))
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		lits = append(lits, strconv.FormatFloat(x, 'g', -1, 64),
			strconv.FormatFloat(-x, 'e', rng.Intn(20), 64),
			fmt.Sprintf("%d.%de%d", rng.Uint64()>>uint(rng.Intn(64)), rng.Intn(1000), rng.Intn(140)-70))
	}
	for _, lit := range lits {
		want, wantErr := strconv.ParseFloat(lit, 64)
		r := jsonReader{b: []byte(lit)}
		got, err := r.float()
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: read %v (%#x, %v), ParseFloat %v (%#x, %v)", lit,
				got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
		if r.i != len(lit) {
			t.Fatalf("%q: read %d of %d bytes", lit, r.i, len(lit))
		}
	}
}

// TestEiselLemireConvertsShortestForms: the fast converter declines
// almost none of the shortest forms of floats in the recorder's range,
// so the fallback stays rare, and every one it converts is exact.
func TestEiselLemireConvertsShortestForms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 10000
	converted := 0
	for i := 0; i < n; i++ {
		x := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-8))
		// d.ddde±XX: the digits without the point are the mantissa.
		mant, exp, _ := strings.Cut(strconv.FormatFloat(x, 'e', -1, 64), "e")
		whole, frac, _ := strings.Cut(mant, ".")
		man, err := strconv.ParseUint(whole+frac, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		e, err := strconv.Atoi(exp)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := eiselLemire(man, e-len(frac), false); ok {
			if f != x {
				t.Fatalf("%v: converted to %v", x, f)
			}
			converted++
		}
	}
	if converted < n*99/100 {
		t.Errorf("converted %d of %d shortest forms", converted, n)
	}
}
