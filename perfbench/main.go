// Command perfbench is the repository benchmark. It runs one workload —
// churn, bulk and durable drive a freshly built topkd over loopback with
// an open-loop generator; items drives topk/items in-process — checks
// every output against a direct replay, and prints its metrics by name
// and unit, ending with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run replays its recorded trace in-process through each layer's entry
// points and reports the per-layer budget instead. Any failed check makes
// the run exit 1 with "correct": false.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	perfbench -topkd BIN -workload churn|bulk|durable|items -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics. e2e metrics are printed with
// -trace 0, layer metrics with -trace 1; extra metrics and notes only
// appear in the human-readable lines.
type report struct {
	traced    bool
	attempted int
	failed    int
	metrics   map[string]metric
	lines     []string
}

func newReport(traced bool) *report {
	return &report{traced: traced, metrics: map[string]metric{}}
}

func (r *report) add(name string, v float64, unit string, final bool) {
	r.lines = append(r.lines, fmt.Sprintf("%-32s %14.6g %s", name, v, unit))
	if final {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

func (r *report) e2e(name string, v float64, unit string)   { r.add(name, v, unit, !r.traced) }
func (r *report) layer(name string, v float64, unit string) { r.add(name, v, unit, r.traced) }
func (r *report) extra(name string, v float64, unit string) { r.add(name, v, unit, false) }
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, "# "+fmt.Sprintf(format, args...))
}

// complete checks that the run produced every metric its mode reports,
// filling the per-layer metrics of layers the workload never reaches
// with 0.
func (r *report) complete() error {
	if r.traced {
		for _, m := range layerMetrics {
			if _, ok := r.metrics[m.name]; !ok {
				r.metrics[m.name] = metric{Value: 0, Unit: m.unit}
			}
		}
		return nil
	}
	for _, m := range e2eMetrics {
		if _, ok := r.metrics[m.name]; !ok {
			return fmt.Errorf("metric %s missing", m.name)
		}
	}
	return nil
}

func main() {
	topkd := flag.String("topkd", "", "topkd binary (served workloads)")
	workDir := flag.String("work", ".bench_build", "directory for data directories and span dumps")
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed window")
	trace := flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
	flag.Parse()

	rep := newReport(*trace == 1)
	err := run(rep, *topkd, *workDir, *name, *seed, *seconds)
	if err == nil {
		err = rep.complete()
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	if rep.attempted == 0 {
		rep.attempted = 1
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{err == nil, rep.attempted, rep.failed, rep.metrics}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.Metrics = map[string]metric{}
	}
	b, _ := json.Marshal(out) // plain values always encode
	fmt.Println(string(b))
	if err != nil {
		os.Exit(1)
	}
}

func run(rep *report, topkd, workDir, name string, seed uint64, seconds float64) error {
	st, err := loadSettings()
	if err != nil {
		return err
	}
	w, err := st.workload(name)
	if err != nil {
		return err
	}
	rep.note("workload %s seed %d seconds %g trace %v; pinning: %s", w.Name, seed, seconds, rep.traced, st.Pinning)
	rep.note("stresses %s; bypasses %s", w.Stresses, w.Bypasses)
	dir, err := os.MkdirTemp(workDir, "run-"+w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	switch w.Kind {
	case "served":
		if topkd == "" {
			return fmt.Errorf("workload %s needs -topkd", w.Name)
		}
		r := &servedRun{st: st, w: w, seed: seed, seconds: seconds, bin: topkd, dir: dir, rep: rep}
		err = r.run(rep.traced)
	case "items":
		err = runItems(w, seed, seconds, rep)
	default:
		err = fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
	}
	if err != nil {
		return fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
