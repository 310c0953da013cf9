package data

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTracesCSV checks the trace reader on arbitrary input: it
// never panics, and whatever it accepts writes back to CSV and
// re-reads to the identical trace (series and universe).
func FuzzReadTracesCSV(f *testing.F) {
	f.Add("1,2,3\n4,5,6\n")
	f.Add("# header\n1, 2,3\n\n4,5,6\n")
	f.Add("  -7 ,+8\r\n9,10\n")
	f.Add("1,2\n3\n") // ragged: rejected
	f.Add("1,x,3\n")  // garbage: rejected
	f.Add("9223372036854775807,-9223372036854775808\n")
	f.Add("99999999999999999999\n") // out of range: rejected
	f.Add("#only a comment\n\n")    // no series: rejected
	f.Add(",\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ReadTracesCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeTracesCSV(&buf, tr); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTracesCSV(&buf)
		if err != nil {
			t.Fatalf("CSV form %q of %q does not re-read: %v", buf.String(), src, err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip of %q diverged:\n  first:  %+v\n  second: %+v", src, tr, again)
		}
	})
}
