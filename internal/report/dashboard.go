package report

import (
	"fmt"
	"strings"
)

// This file renders the self-contained live-dashboard HTML page served
// at the telemetry /dashboard endpoint. Like the rest of the package
// it consumes plain data (no telemetry/series/alert imports), so the
// serving side assembles a DashData and the renderer stays testable as
// a pure string function.

// DashSeries is one series key's (one algorithm's) downsampled
// per-round history, already normalized to per-round rates.
type DashSeries struct {
	Key       string
	Rounds    []float64 // x positions (round index of each point)
	Frames    []float64 // frames per round
	Joules    []float64 // joules per round
	RankError []float64 // worst absolute rank error in the span
	Refines   []float64 // refinement requests per round

	// Phase anatomy, bits on the air per round.
	Validation []float64
	Refinement []float64
	Shipping   []float64
	Other      []float64
}

// DashAlert is one standing rule × key level for the alert table.
type DashAlert struct {
	Rule  string
	Key   string
	Level string // "ok", "warn", "crit"
	Value float64
	Since int
}

// DashSLO is one objective × key budget row for the SLO panel.
type DashSLO struct {
	Name   string
	Key    string
	Signal string
	Level  string  // "ok", "warn", "crit"
	Burn   float64 // min(fast, slow) burn rate
	Spend  float64 // error-budget spend fraction (1 = exhausted)
	Since  int
}

// DashData is everything the dashboard page shows.
type DashData struct {
	Title      string
	RefreshSec int // <meta http-equiv=refresh> period; 0 disables
	Series     []DashSeries
	Alerts     []DashAlert
	SLOs       []DashSLO
	Events     []string // recent alert-log messages, oldest first
}

// levelColors maps alert levels onto the page's status colors.
var levelColors = map[string]string{
	"ok":   "#2ca02c",
	"warn": "#e6a817",
	"crit": "#d62728",
}

// sparkline renders a minimal inline-SVG line of ys (no axes, no
// labels), w×h pixels, auto-scaled to the data range. An empty or
// flat series draws a midline.
func sparkline(ys []float64, w, h int, color string) string {
	if w <= 0 {
		w = 120
	}
	if h <= 0 {
		h = 24
	}
	if color == "" {
		color = palette[0]
	}
	if len(ys) == 0 {
		ys = []float64{0}
	}
	lo, hi := ys[0], ys[0]
	for _, y := range ys[1:] {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	var pts strings.Builder
	for i, y := range ys {
		x := 0.0
		if len(ys) > 1 {
			x = float64(w) * float64(i) / float64(len(ys)-1)
		}
		fy := 0.5
		if hi > lo {
			fy = (y - lo) / (hi - lo)
		}
		// 2px vertical padding keeps the stroke inside the viewBox.
		py := 2 + (1-fy)*float64(h-4)
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, py)
	}
	return fmt.Sprintf(`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d"><polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/></svg>`,
		w, h, w, h, esc(color), pts.String())
}

// Dashboard renders the full self-contained HTML page: the alert
// state table, recent alert events, per-key sparkline rows, a
// cost-over-rounds chart (frames per round, every key overlaid), and
// one phase-anatomy chart per key.
func Dashboard(d DashData) string {
	var b strings.Builder
	title := d.Title
	if title == "" {
		title = "wsnq dashboard"
	}
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	if d.RefreshSec > 0 {
		fmt.Fprintf(&b, "<meta http-equiv=\"refresh\" content=\"%d\">\n", d.RefreshSec)
	}
	fmt.Fprintf(&b, "<title>%s</title>\n", esc(title))
	b.WriteString(`<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.5em; }
table { border-collapse: collapse; }
th, td { padding: 2px 10px; text-align: left; border-bottom: 1px solid #ddd; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.lvl { font-weight: 600; text-transform: uppercase; }
.events { font-family: ui-monospace, monospace; font-size: 12px; white-space: pre; }
.spark { vertical-align: middle; }
.muted { color: #888; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", esc(title))

	// Alert state table.
	b.WriteString("<h2>Alerts</h2>\n")
	if len(d.Alerts) == 0 {
		b.WriteString("<p class=\"muted\">no alert rules attached</p>\n")
	} else {
		b.WriteString("<table><tr><th>rule</th><th>key</th><th>level</th><th>value</th><th>since round</th></tr>\n")
		for _, a := range d.Alerts {
			color := levelColors[a.Level]
			if color == "" {
				color = "#222"
			}
			fmt.Fprintf(&b,
				"<tr><td>%s</td><td>%s</td><td class=\"lvl\" style=\"color:%s\">%s</td><td class=\"num\">%g</td><td class=\"num\">%d</td></tr>\n",
				esc(a.Rule), esc(a.Key), color, esc(a.Level), a.Value, a.Since)
		}
		b.WriteString("</table>\n")
	}
	// SLO error-budget panel, only when objectives are attached.
	if len(d.SLOs) > 0 {
		b.WriteString("<h2>SLO error budgets</h2>\n")
		b.WriteString("<table><tr><th>slo</th><th>key</th><th>signal</th><th>level</th><th>burn</th><th>budget spent</th><th>since round</th></tr>\n")
		for _, s := range d.SLOs {
			color := levelColors[s.Level]
			if color == "" {
				color = "#222"
			}
			fmt.Fprintf(&b,
				"<tr><td>%s</td><td>%s</td><td>%s</td><td class=\"lvl\" style=\"color:%s\">%s</td><td class=\"num\">%.2f</td><td class=\"num\">%.0f%%</td><td class=\"num\">%d</td></tr>\n",
				esc(s.Name), esc(s.Key), esc(s.Signal), color, esc(s.Level), s.Burn, 100*s.Spend, s.Since)
		}
		b.WriteString("</table>\n")
	}
	if len(d.Events) > 0 {
		b.WriteString("<h2>Recent events</h2>\n<div class=\"events\">")
		for _, e := range d.Events {
			b.WriteString(esc(e))
			b.WriteByte('\n')
		}
		b.WriteString("</div>\n")
	}

	// Per-key sparkline rows.
	b.WriteString("<h2>Series</h2>\n")
	if len(d.Series) == 0 {
		b.WriteString("<p class=\"muted\">no series recorded yet</p>\n")
	} else {
		b.WriteString("<table><tr><th>key</th><th>frames/round</th><th>joules/round</th><th>rank error</th><th>refines/round</th><th>rounds</th></tr>\n")
		for _, s := range d.Series {
			rounds := 0
			if n := len(s.Rounds); n > 0 {
				rounds = int(s.Rounds[n-1]) + 1
			}
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s %s</td><td>%s %s</td><td>%s %s</td><td>%s %s</td><td class=\"num\">%d</td></tr>\n",
				esc(s.Key),
				sparkline(s.Frames, 120, 24, palette[0]), last(s.Frames),
				sparkline(s.Joules, 120, 24, palette[1]), last(s.Joules),
				sparkline(s.RankError, 120, 24, palette[3]), last(s.RankError),
				sparkline(s.Refines, 120, 24, palette[4]), last(s.Refines),
				rounds)
		}
		b.WriteString("</table>\n")
	}

	// Cost over rounds: all keys overlaid.
	if c := costChart(d.Series); c != nil {
		if svg, err := c.SVG(); err == nil {
			b.WriteString("<h2>Cost over rounds</h2>\n")
			b.WriteString(svg)
			b.WriteByte('\n')
		}
	}

	// Phase anatomy, one chart per key.
	for _, s := range d.Series {
		if c := phaseChart(s); c != nil {
			if svg, err := c.SVG(); err == nil {
				fmt.Fprintf(&b, "<h2>Phase anatomy — %s</h2>\n", esc(s.Key))
				b.WriteString(svg)
				b.WriteByte('\n')
			}
		}
	}

	b.WriteString("</body></html>\n")
	return b.String()
}

// last renders the most recent value of a sparkline series.
func last(ys []float64) string {
	if len(ys) == 0 {
		return `<span class="muted">–</span>`
	}
	return fmt.Sprintf(`<span class="num">%.3g</span>`, ys[len(ys)-1])
}

// costChart overlays every key's frames-per-round history.
func costChart(series []DashSeries) *Chart {
	c := &Chart{
		Title:  "Per-round cost",
		XLabel: "round",
		YLabel: "frames / round",
	}
	for _, s := range series {
		if len(s.Rounds) < 2 {
			continue
		}
		c.Series = append(c.Series, Series{Name: s.Key, X: s.Rounds, Y: s.Frames})
	}
	if len(c.Series) == 0 || c.Validate() != nil {
		return nil
	}
	return c
}

// phaseChart shows one key's wire-bit anatomy over rounds.
func phaseChart(s DashSeries) *Chart {
	if len(s.Rounds) < 2 {
		return nil
	}
	c := &Chart{
		Title:  "Wire bits by phase — " + s.Key,
		XLabel: "round",
		YLabel: "bits / round",
		Series: []Series{
			{Name: "validation", X: s.Rounds, Y: s.Validation},
			{Name: "refinement", X: s.Rounds, Y: s.Refinement},
			{Name: "shipping", X: s.Rounds, Y: s.Shipping},
			{Name: "other", X: s.Rounds, Y: s.Other},
		},
	}
	if c.Validate() != nil {
		return nil
	}
	return c
}
