// Package cli holds the small pieces shared by the cmd tools: the
// -http flag behavior (every tool serves the same telemetry surface
// the same way), unified Ctrl-C handling, the -alert flag's help
// text, and the alert and SLO report printers.
package cli

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"wsnq/internal/alert"
	"wsnq/internal/slo"
)

// signalContext returns a context cancelled by Ctrl-C (SIGINT) or
// SIGTERM, so every tool shuts its -http server and lingering loop
// down the same way. The stop function releases the signal handler;
// a second signal after cancellation kills the process as usual.
func signalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// ServeHTTP implements the tools' shared -http flag: it binds addr,
// serves h in the background until ctx is cancelled, and announces the
// endpoints on stderr. The returned address is the bound one, so
// ":0" works. (Endpoints without a backing collector — e.g. /series
// with no series store attached — answer 404; / lists what is live.)
func ServeHTTP(ctx context.Context, tool, addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: -http %s: %w", tool, addr, err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s/ (the index lists the endpoints)\n", tool, bound)
	return bound, nil
}

// linger keeps a tool alive after its work completes so the operator
// can still read the telemetry endpoints; it blocks until ctx is
// cancelled (Ctrl-C).
func linger(ctx context.Context, tool string) {
	if ctx.Err() != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: done — telemetry still serving, Ctrl-C to exit\n", tool)
	<-ctx.Done()
}

// Session bundles the lifecycle every cmd tool shares — the
// signal-cancelled context, the optional -http telemetry server, and
// the post-work linger loop — so each tool stops hand-rolling the same
// signalContext/ServeHTTP/linger sequence.
//
//	s := cli.NewSession("wsnq-sim")
//	defer s.Close()
//	if err := s.Serve(*httpAddr, handler); err != nil { s.Fatal(err) }
//	... work with s.Context() ...
//	s.Linger() // blocks until Ctrl-C, only if -http actually bound
type Session struct {
	tool    string
	ctx     context.Context
	stop    context.CancelFunc
	serving bool
}

// NewSession starts a tool session: its context cancels on Ctrl-C
// (SIGINT) or SIGTERM.
func NewSession(tool string) *Session {
	ctx, stop := signalContext(context.Background())
	return &Session{tool: tool, ctx: ctx, stop: stop}
}

// Context returns the session's signal-cancelled context.
func (s *Session) Context() context.Context { return s.ctx }

// Serve implements the shared -http flag on the session: an empty addr
// is a no-op (the flag unset), otherwise h is served in the background
// until the session ends and Linger will block. The bound address is
// announced on stderr.
func (s *Session) Serve(addr string, h http.Handler) error {
	if addr == "" {
		return nil
	}
	if _, err := ServeHTTP(s.ctx, s.tool, addr, h); err != nil {
		return err
	}
	s.serving = true
	return nil
}

// Linger keeps the tool alive for its telemetry endpoints after the
// work completes: it blocks until Ctrl-C when Serve bound a listener
// and returns immediately otherwise.
func (s *Session) Linger() {
	if !s.serving {
		return
	}
	linger(s.ctx, s.tool)
}

// Close releases the signal handler; a later Ctrl-C kills the process
// as usual.
func (s *Session) Close() { s.stop() }

// Fatal prints "tool: err" on stderr and exits 1.
func (s *Session) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", s.tool, err)
	os.Exit(1)
}

// Fatalf is Fatal with a format string.
func (s *Session) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", s.tool, fmt.Sprintf(format, args...))
	os.Exit(1)
}

// FaultPlanUsage is the shared help text of the tools' -fault flag.
const FaultPlanUsage = "semicolon-separated fault plan: crash@R[-R2]:nID, " +
	"burst(p=P,len=L):nID|link, partition@R[-R2] (e.g. 'crash@120:n17; burst(p=0.3,len=8):link'; see DESIGN.md §4f)"

// ScenarioUsage is the shared help text of the tools' -scenario flag.
const ScenarioUsage = "scenario FILE: one 'key value' clause per line composing topology, data, " +
	"algorithms, fault plan, arq, alerts, and an optional sweep (see testdata/scenarios and the README's Scenarios section)"

// AlertRulesUsage is the shared help text of the tools' -alert flag.
const AlertRulesUsage = "semicolon-separated alert rules: presets storm, burnrate, excursion, orphan, gc, heap, " +
	"or [name=]metric[:agg(window)]CMP warn[,crit] (e.g. 'storm; joules:mean(16)>2e-4'; see DESIGN.md §4e)"

// PrintAlerts writes the end-of-study alert report: every rule × key
// standing level and the chronological event log. It prints nothing
// when there is nothing to say (no states, no events).
func PrintAlerts(w io.Writer, states []alert.State, events []alert.Event) {
	if len(states) == 0 && len(events) == 0 {
		return
	}
	fmt.Fprintln(w, "alerts:")
	for _, s := range states {
		fmt.Fprintf(w, "  %-4s %s[%s] = %g (since round %d, %d rounds seen)\n",
			s.Level, s.Rule, s.Key, s.Value, s.Since, s.Rounds)
	}
	if len(events) > 0 {
		fmt.Fprintln(w, "alert log:")
		for _, ev := range events {
			fmt.Fprintf(w, "  %s\n", ev.Message)
		}
	}
}

// PrintSLO writes the SLO budget report: every objective × key
// standing budget and the chronological burn-rate transition log. It
// prints nothing when there is nothing to say (no statuses, no
// events).
func PrintSLO(w io.Writer, statuses []slo.Status, events []slo.Event) {
	if len(statuses) == 0 && len(events) == 0 {
		return
	}
	fmt.Fprintln(w, "SLO budgets:")
	for _, st := range statuses {
		fmt.Fprintf(w, "  %-8s %-24s %-4s burn=%.2f spend=%.0f%% (%d/%d bad over %d rounds)\n",
			st.SLO, st.Key, st.Level, st.Burn, 100*st.Spend, st.Bad, int(st.Budget), st.Rounds)
	}
	for _, ev := range events {
		fmt.Fprintf(w, "  %s\n", ev.Message)
	}
}
