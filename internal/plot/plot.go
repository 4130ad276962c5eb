// Package plot renders small ASCII charts for the experiment harness: line
// charts for growth curves (messages vs log Δ, ratio vs σ, …) and bar
// charts for categorical comparisons. Pure text, no dependencies — meant
// for terminal output next to the metrics tables.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of (x, y) points; all series of a chart share
// the x positions.
type Series struct {
	Name   string
	Values []float64
}

// markers assigned to series in order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Line renders a fixed-height line chart of the series over the shared x
// labels. Y is auto-scaled across all series (always including zero when
// close); each series draws with its own marker; a legend follows.
func Line(title string, xLabels []string, series []Series, width, height int) string {
	if len(series) == 0 || len(xLabels) == 0 || width < 16 || height < 4 {
		return ""
	}
	for _, s := range series {
		if len(s.Values) != len(xLabels) {
			return fmt.Sprintf("plot: series %q has %d points for %d labels\n",
				s.Name, len(s.Values), len(xLabels))
		}
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			ymin = math.Min(ymin, v)
			ymax = math.Max(ymax, v)
		}
	}
	if ymin > 0 && ymin < ymax/2 {
		ymin = 0
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	// x positions spread across the width.
	xpos := make([]int, len(xLabels))
	for i := range xLabels {
		if len(xLabels) == 1 {
			xpos[i] = width / 2
		} else {
			xpos[i] = i * (width - 1) / (len(xLabels) - 1)
		}
	}
	yrow := func(v float64) int {
		f := (v - ymin) / (ymax - ymin)
		r := height - 1 - int(math.Round(f*float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		prevR, prevC := -1, -1
		for i, v := range s.Values {
			r, c := yrow(v), xpos[i]
			if prevC >= 0 {
				drawSegment(grid, prevR, prevC, r, c)
			}
			grid[r][c] = m
			prevR, prevC = r, c
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	yTop := formatY(ymax)
	yBot := formatY(ymin)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r, row := range grid {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	// x axis labels: first and last always; middle if room.
	axis := make([]byte, width)
	for i := range axis {
		axis[i] = '-'
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), string(axis))
	lab := make([]byte, width)
	for i := range lab {
		lab[i] = ' '
	}
	placeLabel(lab, xpos[0], xLabels[0])
	placeLabel(lab, xpos[len(xpos)-1], xLabels[len(xLabels)-1])
	if len(xLabels) > 2 {
		mid := len(xLabels) / 2
		placeLabel(lab, xpos[mid], xLabels[mid])
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", pad), strings.TrimRight(string(lab), " "))
	for si, s := range series {
		fmt.Fprintf(&b, "%s %c %s\n", strings.Repeat(" ", pad), markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// drawSegment connects two points with light interpolation dots.
func drawSegment(grid [][]byte, r0, c0, r1, c1 int) {
	steps := abs(c1-c0) + abs(r1-r0)
	if steps == 0 {
		return
	}
	for s := 1; s < steps; s++ {
		r := r0 + (r1-r0)*s/steps
		c := c0 + (c1-c0)*s/steps
		if grid[r][c] == ' ' {
			grid[r][c] = '.'
		}
	}
}

func placeLabel(lab []byte, pos int, text string) {
	start := pos - len(text)/2
	if start < 0 {
		start = 0
	}
	if start+len(text) > len(lab) {
		start = len(lab) - len(text)
	}
	copy(lab[start:], text)
}

func formatY(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
