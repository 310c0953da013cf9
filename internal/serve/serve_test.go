package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnq/internal/experiment"
)

// testCfg is a small fleet every test can afford: 40 nodes, a tight
// area so the topology stays connected, synthetic data.
func testCfg() experiment.Config {
	cfg := experiment.Default()
	cfg.Nodes = 40
	cfg.Area = 60
	cfg.RadioRange = 25
	cfg.Rounds = 1 << 20 // stepped by the registry clock, never bulk-run
	cfg.Runs = 1
	cfg.Dataset.Synthetic.Universe = 1 << 12
	return cfg
}

func newTestRegistry(t *testing.T, rcfg Config) *Registry {
	t.Helper()
	r := NewRegistry(rcfg)
	if _, err := r.AddFleet("fleet0", testCfg()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegisterAdvanceDeregister(t *testing.T) {
	r := newTestRegistry(t, Config{})
	q, err := r.Register(Spec{Fleet: "fleet0", Algorithm: "IQ", Phi: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if q.ID() == "" {
		t.Fatal("no assigned ID")
	}
	if _, ok := q.Latest(); ok {
		t.Fatal("update before first Advance")
	}
	for i := 0; i < 5; i++ {
		if n := r.Advance(); n != 1 {
			t.Fatalf("Advance stepped %d queries, want 1", n)
		}
	}
	u, ok := q.Latest()
	if !ok {
		t.Fatal("no update after Advance")
	}
	if u.Round != 4 { // rounds are 0-based; the first Advance runs init
		t.Fatalf("latest round %d, want 4", u.Round)
	}
	if u.Quantile == 0 || u.Oracle == 0 {
		t.Fatalf("empty answer: %+v", u)
	}
	if rounds, _ := q.Series().Rounds(q.Spec().Key); rounds == 0 {
		t.Fatal("query series ingested nothing")
	}
	if err := r.Deregister(q.ID()); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after deregister = %d", r.Len())
	}
	if err := r.Deregister(q.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second deregister: %v, want ErrNotFound", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	r := newTestRegistry(t, Config{MaxQueries: 2, ClientQuota: 1})
	if _, err := r.Register(Spec{Fleet: "nosuch", Algorithm: "IQ"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown fleet: %v, want ErrNotFound", err)
	}
	if _, err := r.Register(Spec{ID: "a", Client: "c1", Fleet: "fleet0", Algorithm: "IQ"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(Spec{ID: "a", Client: "c2", Fleet: "fleet0", Algorithm: "IQ"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate ID: %v, want ErrExists", err)
	}
	if _, err := r.Register(Spec{ID: "b", Client: "c1", Fleet: "fleet0", Algorithm: "IQ"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("client quota: %v, want ErrQuota", err)
	}
	if _, err := r.Register(Spec{ID: "b", Client: "c2", Fleet: "fleet0", Algorithm: "IQ"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(Spec{ID: "c", Client: "c3", Fleet: "fleet0", Algorithm: "IQ"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("max queries: %v, want ErrQuota", err)
	}
	// A rejected registration must not leak its slot: freeing one
	// admits the next.
	if err := r.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(Spec{ID: "c", Client: "c3", Fleet: "fleet0", Algorithm: "IQ"}); err != nil {
		t.Fatalf("register after free slot: %v", err)
	}
	// A bad algorithm fails after admit, when its protocol instance is
	// built — the slot must roll back too.
	if err := r.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(Spec{ID: "d", Client: "c4", Fleet: "fleet0", Algorithm: "NOPE"}); err == nil {
		t.Fatal("bad algorithm registered")
	}
	if _, err := r.Register(Spec{ID: "d", Client: "c4", Fleet: "fleet0", Algorithm: "HBC"}); err != nil {
		t.Fatalf("register after rollback: %v", err)
	}
}

func TestSubscribeBackpressure(t *testing.T) {
	r := newTestRegistry(t, Config{SubscriberBuffer: 2})
	q, err := r.Register(Spec{Fleet: "fleet0", Algorithm: "HBC"})
	if err != nil {
		t.Fatal(err)
	}
	sub := q.Subscribe()
	for i := 0; i < 6; i++ {
		r.Advance()
	}
	// Buffer depth 2: rounds 4 and 5 pending, 0-3 shed oldest-first.
	if sub.Dropped() != 4 {
		t.Fatalf("subscription dropped %d, want 4", sub.Dropped())
	}
	if r.Dropped() != 4 {
		t.Fatalf("registry dropped %d, want 4", r.Dropped())
	}
	u := <-sub.Updates()
	if u.Round != 4 {
		t.Fatalf("first pending round %d, want 4 (drop-oldest)", u.Round)
	}
	if err := r.Deregister(q.ID()); err != nil {
		t.Fatal(err)
	}
	// Deregistration closes the stream after the pending updates.
	if u := <-sub.Updates(); u.Round != 5 {
		t.Fatalf("second pending round %d, want 5", u.Round)
	}
	if _, ok := <-sub.Updates(); ok {
		t.Fatal("channel still open after deregister")
	}
}

func TestQueryIsolation(t *testing.T) {
	r := newTestRegistry(t, Config{})
	qa, err := r.Register(Spec{ID: "a", Fleet: "fleet0", Algorithm: "IQ", Phi: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := r.Register(Spec{ID: "b", Fleet: "fleet0", Algorithm: "IQ", Phi: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r.Advance()
	}
	ua, _ := qa.Latest()
	ub, _ := qb.Latest()
	if ua.Oracle >= ub.Oracle {
		t.Fatalf("φ=0.1 oracle %d not below φ=0.9 oracle %d", ua.Oracle, ub.Oracle)
	}
	if qa.Series() == qb.Series() {
		t.Fatal("queries share a series store")
	}
}

func TestHandlerBranches(t *testing.T) {
	r := newTestRegistry(t, Config{MaxQueries: 1})
	ts := httptest.NewServer(Handler(r, nil))
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"id":"` + strings.Repeat("q", maxSpecBytes) + `"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	if resp := post(`{"fleet":"nosuch","algorithm":"IQ"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fleet: %d, want 404", resp.StatusCode)
	}
	resp := post(`{"id":"q1","fleet":"fleet0","algorithm":"IQ","phi":0.75}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d, want 201", resp.StatusCode)
	}
	var view QueryView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.ID != "q1" || view.K != 30 { // ceil(0.75 × 40)
		t.Fatalf("view = %+v, want q1 with k=30", view.querySummary)
	}
	if resp := post(`{"id":"q1","fleet":"fleet0","algorithm":"IQ"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: %d, want 409", resp.StatusCode)
	}
	if resp := post(`{"id":"q2","fleet":"fleet0","algorithm":"IQ"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: %d, want 429", resp.StatusCode)
	}

	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/queries/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query: %d, want 404", resp.StatusCode)
	}
	if resp := get("/queries/nosuch/subscribe"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown subscribe: %d, want 404", resp.StatusCode)
	}
	if resp := get("/queries/q1/subscribe?n=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: %d, want 400", resp.StatusCode)
	}
	if resp := get("/nosuchpath"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fallthrough: %d, want 404", resp.StatusCode)
	}

	// One streamed round: subscribe with n=1, tick, read one update.
	r.Advance()
	type streamed struct {
		u   Update
		err error
	}
	done := make(chan streamed, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/queries/q1/subscribe?n=1")
		if err != nil {
			done <- streamed{err: err}
			return
		}
		defer resp.Body.Close()
		var u Update
		err = json.NewDecoder(bufio.NewReader(resp.Body)).Decode(&u)
		done <- streamed{u: u, err: err}
	}()
	// The subscription attaches asynchronously; tick until the stream
	// yields (with a real deadline, not a round count — attachment is
	// an HTTP round trip).
	var got streamed
	deadline := time.After(10 * time.Second)
	for waiting := true; waiting; {
		r.Advance()
		select {
		case got = <-done:
			waiting = false
		case <-deadline:
			t.Fatal("no streamed update before deadline")
		case <-time.After(time.Millisecond):
		}
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.u.Query != "q1" {
		t.Fatalf("streamed update = %+v", got.u)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/q1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", dresp.StatusCode)
	}

	var status StatusView
	sresp := get("/serve")
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Queries != 0 || status.Fleets != 1 {
		t.Fatalf("status = %+v", status)
	}

	// Sharing is visible on /serve: two same-key queries step one
	// protocol instance, a same-key pair with an adaptation policy two.
	for _, c := range []struct {
		adapt     string
		instances int
	}{{"", 1}, {"on storm(warn) do widen 1.5", 2}} {
		r := newTestRegistry(t, Config{})
		ts := httptest.NewServer(Handler(r, nil))
		defer ts.Close()
		for _, id := range []string{"a", "b"} {
			body, _ := json.Marshal(Spec{ID: id, Fleet: "fleet0", Algorithm: "IQ", Phi: 0.5, Adapt: c.adapt})
			resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("register %s: %d, want 201", id, resp.StatusCode)
			}
		}
		r.Advance()
		resp, err := http.Get(ts.URL + "/serve")
		if err != nil {
			t.Fatal(err)
		}
		var status StatusView
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.Queries != 2 || status.Instances != c.instances {
			t.Fatalf("adapt %q: status = %+v, want 2 queries on %d instances", c.adapt, status, c.instances)
		}
	}
}

// TestServeHammer runs registration, deregistration, subscription, and
// the round clock concurrently; run with -race it is the registry's
// synchronization audit.
func TestServeHammer(t *testing.T) {
	r := newTestRegistry(t, Config{SubscriberBuffer: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	// Clock: tick as fast as possible until the churn finishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			r.Advance()
		}
	}()

	// Churners: register a query and a same-key twin, subscribe, drain
	// a few updates, deregister the twin mid-stream, then the query; IDs
	// collide across workers on purpose. Twins and the other workers'
	// same-key queries join and leave shared protocol instances.
	const workers, perWorker = 8, 12
	var churn sync.WaitGroup
	for w := 0; w < workers; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("h%d", (w*perWorker+i)%20)
				alg := []string{"HBC", "IQ", "TAG"}[i%3]
				q, err := r.Register(Spec{ID: id, Client: "hammer", Fleet: "fleet0", Algorithm: alg})
				if err != nil {
					continue // collision with another worker
				}
				twin, _ := r.Register(Spec{ID: id + "t", Client: "hammer", Fleet: "fleet0", Algorithm: alg})
				sub := q.Subscribe()
				for n := 0; n < 3; n++ {
					if _, ok := <-sub.Updates(); !ok {
						break
					}
					if n == 1 && twin != nil {
						r.Deregister(twin.ID()) // may race another churner: both outcomes fine
					}
				}
				q.Unsubscribe(sub)
				r.Deregister(q.ID()) // may race another churner: both outcomes fine
			}
		}(w)
	}
	churn.Wait()
	cancel()
	wg.Wait()

	// Whatever survived the churn must still answer.
	for _, q := range r.Queries() {
		if err := q.Err(); err != nil {
			t.Fatalf("query %s failed: %v", q.ID(), err)
		}
	}
}
