package cli

import (
	"context"
	"net/http"
	"testing"

	"wsnq/internal/telemetry"
)

// TestServeLifecycle binds the shared -http helper on an ephemeral
// port: the bound address serves /metrics, and after ctx is cancelled
// the port refuses connections.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := telemetry.Handler(telemetry.NewRegistry(), nil, nil, nil, nil, nil)
	addr, err := ServeHTTP(ctx, "cli-test", "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET while serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	cancel()
	// After cancellation the listener closes; the port eventually
	// refuses connections. Poll briefly rather than racing the goroutine.
	for i := 0; i < 100; i++ {
		if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
			return
		}
	}
	t.Error("server still reachable after context cancellation")
}
