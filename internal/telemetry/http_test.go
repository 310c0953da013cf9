package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsnq/internal/alert"
	"wsnq/internal/series"
	"wsnq/internal/trace"
)

// observability builds a tiny populated series store and alert engine
// so the /series, /alerts, and /dashboard endpoints have live data.
func observability(t *testing.T) (*series.Store, *alert.Engine) {
	t.Helper()
	rules, err := alert.ParseRules("storm")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := alert.NewEngine(rules...)
	if err != nil {
		t.Fatal(err)
	}
	st := series.New(0)
	c := st.IngestTotals("IQ", func() series.Totals { return series.Totals{} }, eng.Observe)
	for r := 0; r < 3; r++ {
		c.Collect(trace.Event{Kind: trace.KindRoundStart, Round: r, Node: -1})
		c.Collect(trace.Event{Kind: trace.KindRefine, Round: r, Node: -1})
		c.Collect(trace.Event{Kind: trace.KindRefine, Round: r, Node: -1})
		c.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: r, Node: -1})
	}
	return st, eng
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.jobs_done").Add(7)
	an := NewAnalyzer(30e-3)
	feed(an)
	st, eng := observability(t)
	srv := httptest.NewServer(Handler(reg, an, st, eng, nil, nil))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["engine.jobs_done"] != 7 {
		t.Errorf("/metrics counter = %d, want 7", snap.Counters["engine.jobs_done"])
	}

	code, body = get("/health")
	if code != http.StatusOK {
		t.Fatalf("/health status = %d", code)
	}
	var rep HealthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if rep.Nodes != 3 || rep.Rounds != 3 {
		t.Errorf("/health nodes/rounds = %d/%d, want 3/3", rep.Nodes, rep.Rounds)
	}

	code, body = get("/series")
	if code != http.StatusOK {
		t.Fatalf("/series status = %d", code)
	}
	var snapshots map[string]series.Snapshot
	if err := json.Unmarshal(body, &snapshots); err != nil {
		t.Fatalf("/series not JSON: %v", err)
	}
	if got := snapshots["IQ"].Rounds; got != 3 {
		t.Errorf("/series rounds = %d, want 3", got)
	}

	code, body = get("/alerts")
	if code != http.StatusOK {
		t.Fatalf("/alerts status = %d", code)
	}
	var av AlertsView
	if err := json.Unmarshal(body, &av); err != nil {
		t.Fatalf("/alerts not JSON: %v", err)
	}
	if len(av.States) != 1 || av.States[0].Level != alert.Warn {
		t.Errorf("/alerts states = %+v, want one standing warn", av.States)
	}

	code, body = get("/dashboard")
	if code != http.StatusOK {
		t.Fatalf("/dashboard status = %d", code)
	}
	html := string(body)
	for _, want := range []string{"<svg", "storm", "IQ", "warn"} {
		if !strings.Contains(html, want) {
			t.Errorf("/dashboard missing %q", want)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}

	code, body = get("/")
	if code != http.StatusOK || !strings.Contains(string(body), "/metrics") {
		t.Errorf("index status = %d body = %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

func TestHandlerNilComponents(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil, nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/health", "/series", "/alerts", "/dashboard", "/profilez"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with nil backend = %d, want 404", path, resp.StatusCode)
		}
	}
}
