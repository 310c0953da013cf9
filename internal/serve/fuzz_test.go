package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzRegisterSpec drives POST /queries with arbitrary bodies: the spec
// decode and Registry.Register's validation never panic, a rejected
// spec leaves no query registered and no client slot claimed, and an
// accepted one is registered under the ID its view reports.
func FuzzRegisterSpec(f *testing.F) {
	f.Add(`{"fleet":"fleet0","algorithm":"IQ"}`)
	f.Add(`{"id":"q1","client":"c","fleet":"fleet0","algorithm":"HBC","phi":0.75,"window":8,"key":"k"}`)
	f.Add(`{"fleet":"fleet0","algorithm":"IQ","rules":"storm; hot=frames>9","slo":"rank; fresh","adapt":"on storm do switch iq"}`)
	f.Add(`{"fleet":"nosuch","algorithm":"IQ"}`)
	f.Add(`{"fleet":"fleet0","algorithm":"nosuch"}`)
	f.Add(`{"fleet":"fleet0","algorithm":"IQ","phi":1.5}`)
	f.Add(`{"fleet":"fleet0","algorithm":"IQ","rules":"frames>NaN"}`)
	f.Add(`{"fleet":"fleet0","algorithm":"IQ","slo":"bogus"}`)
	f.Add(`{"fleet":"fleet0","algorithm":"IQ","adapt":"on"}`)
	f.Add(`{"fleet":"fleet0","algorithm":"IQ","window":-3}`)
	f.Add(`{not json`)
	f.Add(``)
	r := NewRegistry(Config{})
	if _, err := r.AddFleet("fleet0", testCfg()); err != nil {
		f.Fatal(err)
	}
	h := Handler(r, nil)
	f.Fuzz(func(t *testing.T, body string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(body)))
		qs := r.Queries()
		if w.Code != http.StatusCreated {
			if len(qs) != 0 || len(r.clients) != 0 {
				t.Fatalf("rejected spec %q (%d %s) left %d queries, %d clients registered",
					body, w.Code, w.Body, len(qs), len(r.clients))
			}
			return
		}
		if len(qs) != 1 {
			t.Fatalf("accepted spec %q registered %d queries, want 1", body, len(qs))
		}
		if err := r.Deregister(qs[0].ID()); err != nil {
			t.Fatal(err)
		}
		if len(r.clients) != 0 {
			t.Fatalf("deregistering %q left %d clients", body, len(r.clients))
		}
	})
}
