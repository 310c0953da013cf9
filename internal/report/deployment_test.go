package report

import (
	"math/rand"
	"strings"
	"testing"

	"wsnq/internal/wsn"
)

func testTopology(t *testing.T) *wsn.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	top, err := wsn.BuildConnectedTree(60, 200, 45, rng, 50, wsn.BuildTree)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestDeploymentSVG(t *testing.T) {
	top := testTopology(t)
	svg, err := DeploymentSVG(top, 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("malformed SVG envelope")
	}
	// One circle per sensor, one edge per sensor, one sink rect.
	if got := strings.Count(svg, "<circle"); got != top.N() {
		t.Errorf("%d circles, want %d", got, top.N())
	}
	if got := strings.Count(svg, "<line"); got != top.N() {
		t.Errorf("%d edges, want %d", got, top.N())
	}
	if !strings.Contains(svg, "#d62728") {
		t.Error("sink marker missing")
	}
}

func TestDeploymentSVGValidation(t *testing.T) {
	if _, err := DeploymentSVG(nil, 200, 400); err == nil {
		t.Error("nil topology accepted")
	}
	top := testTopology(t)
	if _, err := DeploymentSVG(top, 0, 400); err == nil {
		t.Error("zero side accepted")
	}
	if _, err := DeploymentSVG(top, 200, 0); err == nil {
		t.Error("zero pixels accepted")
	}
}

func TestDeploymentSVGSkipsVirtual(t *testing.T) {
	top := testTopology(t)
	ex, err := wsn.ExpandVirtual(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := DeploymentSVG(ex, 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Only the real nodes are drawn.
	if got := strings.Count(svg, "<circle"); got != top.N() {
		t.Errorf("%d circles, want %d real nodes", got, top.N())
	}
}

func TestDeploymentDOT(t *testing.T) {
	top := testTopology(t)
	dot, err := DeploymentDOT(top)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot, "digraph wsn {") {
		t.Error("not a digraph")
	}
	// One edge per sensor.
	if got := strings.Count(dot, "->"); got != top.N() {
		t.Errorf("%d edges, want %d", got, top.N())
	}
	if _, err := DeploymentDOT(nil); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestBlendClamps(t *testing.T) {
	r, g, b := blend(0, 0, 0, 100, 100, 100, -1)
	if r != 0 || g != 0 || b != 0 {
		t.Error("negative fraction not clamped")
	}
	r, g, b = blend(0, 0, 0, 100, 100, 100, 2)
	if r != 100 || g != 100 || b != 100 {
		t.Error("fraction > 1 not clamped")
	}
}
