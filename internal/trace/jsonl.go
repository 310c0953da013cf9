package trace

import (
	"encoding/json"
	"io"
)

// Writer streams events as JSON Lines: one Event object per line, in
// arrival order. Encoding is deterministic (fixed field order, stable
// float formatting), which is what makes committed golden-trace digests
// possible. Errors are sticky: the first write failure stops further
// encoding and is reported by Err.
type Writer struct {
	enc *json.Encoder
	err error
}

// NewWriter returns a JSONL collector writing to w. The writer does not
// buffer; wrap w in a bufio.Writer (and flush it) for file output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Collect implements Collector.
func (w *Writer) Collect(e Event) {
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(e)
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }
