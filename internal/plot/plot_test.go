package plot

import (
	"strings"
	"testing"
)

func TestLineBasics(t *testing.T) {
	out := Line("growth", []string{"10", "20", "30"}, []Series{
		{Name: "exact", Values: []float64{70, 90, 110}},
		{Name: "topk", Values: []float64{65, 65, 65}},
	}, 40, 10)
	if out == "" {
		t.Fatal("empty chart")
	}
	for _, want := range []string{"growth", "exact", "topk", "*", "o", "10", "30"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + labels + 2 legend rows
	if len(lines) != 1+10+1+1+2 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestLineRejectsBadInput(t *testing.T) {
	if Line("", nil, nil, 40, 10) != "" {
		t.Error("empty input should render nothing")
	}
	if Line("", []string{"a"}, []Series{{Name: "s", Values: []float64{1, 2}}}, 40, 10) == "" {
		t.Error("mismatched series should render a diagnostic")
	}
	if Line("", []string{"a"}, []Series{{Name: "s", Values: []float64{1}}}, 2, 2) != "" {
		t.Error("tiny dimensions should render nothing")
	}
}

func TestLineSinglePoint(t *testing.T) {
	out := Line("", []string{"x"}, []Series{{Name: "s", Values: []float64{5}}}, 20, 5)
	if !strings.Contains(out, "*") {
		t.Errorf("single point missing marker:\n%s", out)
	}
}

func TestLineConstantSeries(t *testing.T) {
	out := Line("", []string{"a", "b"}, []Series{{Name: "s", Values: []float64{3, 3}}}, 24, 6)
	if out == "" || !strings.Contains(out, "*") {
		t.Errorf("constant series failed:\n%s", out)
	}
}
