package protocol_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// goldenPath holds the bytes an older build of this package produced for
// goldenCases; see testdata/golden/README.md.
var goldenPath = filepath.Join("testdata", "golden", "protocol.json")

// goldenRecord is everything one golden run exposes: a digest of every
// step's output, message total, filters and tags, plus the final counters.
type goldenRecord struct {
	Case     string
	StepHash string
	Messages metrics.Snapshot
	Epochs   int64
	// Dense and the Theorem 5.8 controller.
	SubCalls int64 `json:",omitempty"`
	Halvings int64 `json:",omitempty"`
	// HalfEps: V2 nodes moved to V1/V3 without an epoch restart.
	V2Moves int64 `json:",omitempty"`
	// TopKProto: violations handled per phase A1, A2, A3, P4.
	Phases []int64 `json:",omitempty"`
	// Standalone Dense: steps whose output was not ε-valid. DENSEPROTOCOL
	// is ε-correct only in the dense regime, which the walks leave.
	InvalidSteps int64 `json:",omitempty"`
}

type goldenCase struct {
	mon   string
	name  string
	n, k  int
	e     eps.Eps
	steps int
	seed  uint64
	gen   func() stream.Generator
	build func(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor
}

// denseTrace is a seeded dense-regime oscillator over n nodes: k-1 nodes
// clearly above, a band of dense nodes oscillating ±4% around 50000 (inside
// the ε = 1/16 neighborhood, so the k-th value is contested), the rest
// clearly below.
func denseTrace(n, k, dense int, seed uint64) func() stream.Generator {
	return func() stream.Generator {
		return stream.NewOscillator(k-1, dense, n-(k-1)-dense, 50000, 2000, 50000*64, 700, seed)
	}
}

func buildApprox(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor {
	return protocol.NewApprox(c, k, e)
}

func buildHalfEps(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor {
	return protocol.NewHalfEps(c, k, e)
}

func buildTopK(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor {
	return protocol.NewTopKProto(c, k, e)
}

// buildDense runs DENSEPROTOCOL standalone the way scriptRig does: every
// epoch end and every case-(d) switch restarts Dense from a fresh probe.
func buildDense(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor {
	d := protocol.NewDense(c, k, e)
	restart := func() { d.StartWithProbe(protocol.TopM(c, k+1)) }
	d.OnEpochEnd = restart
	d.OnSwitchTopK = restart
	return d
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(mon string, n, k, steps int, e eps.Eps, trace string, gen func() stream.Generator,
		build func(cluster.Cluster, int, eps.Eps) protocol.Monitor) {
		cs = append(cs, goldenCase{
			mon:  mon,
			name: fmt.Sprintf("%s/%s/n=%d/eps=%v", mon, trace, n, e),
			n:    n, k: k, e: e, steps: steps, seed: uint64(n) * 3,
			gen: gen, build: build,
		})
	}
	for _, sz := range []struct {
		n, k, dense, steps int
		seed               uint64
		walkSeeds          []uint64
	}{{16, 3, 8, 400, 23, []uint64{1}}, {1024, 8, 12, 300, 7, []uint64{2, 5}}} {
		traces := []struct {
			name string
			e    eps.Eps
			gen  func() stream.Generator
		}{
			{"osc", eps.MustNew(1, 16), denseTrace(sz.n, sz.k, sz.dense, sz.seed)},
			{"osc", eps.MustNew(1, 32), denseTrace(sz.n, sz.k, sz.dense, sz.seed)},
		}
		for _, ws := range sz.walkSeeds {
			// A slow walk in a narrow band: ties at the k-th value, S1∩S2
			// nodes that SUBPROTOCOL must resolve, and SUBPROTOCOL
			// re-entry.
			traces = append(traces, struct {
				name string
				e    eps.Eps
				gen  func() stream.Generator
			}{fmt.Sprintf("walk%d", ws), eps.MustNew(1, 16), func() stream.Generator { return stream.NewWalk(sz.n, 200, 4, 1<<20, ws) }})
		}
		for _, tr := range traces {
			add("approx", sz.n, sz.k, sz.steps, tr.e, tr.name, tr.gen, buildApprox)
			add("dense", sz.n, sz.k, sz.steps, tr.e, tr.name, tr.gen, buildDense)
			add("half-eps", sz.n, sz.k, sz.steps, tr.e, tr.name, tr.gen, buildHalfEps)
		}
		// TOP-K-PROTOCOL restarts an epoch nearly every step on a dense
		// trace, so one such trace suffices; the Section 4 adversary
		// drives it through all four phases.
		add("topk-protocol", sz.n, sz.k, sz.steps, traces[0].e, traces[0].name, traces[0].gen, buildTopK)
		climber := func() stream.Generator { return stream.NewClimber(sz.k, sz.n-sz.k-1, 1<<30) }
		add("topk-protocol", sz.n, sz.k, sz.steps, eps.MustNew(1, 16), "climber", climber, buildTopK)
	}
	return cs
}

// runGolden drives one case on a fresh lockstep engine, validating the
// ε-output after every step.
func runGolden(t *testing.T, gc goldenCase) goldenRecord {
	t.Helper()
	gen := gc.gen()
	eng := lockstep.New(gen.N(), gc.seed)
	mon := gc.build(eng, gc.k, gc.e)
	adaptive, _ := gen.(stream.Adaptive)
	rec := goldenRecord{Case: gc.name}
	h := sha256.New()
	var buf []byte
	for ts := 0; ts < gc.steps; ts++ {
		if adaptive != nil {
			adaptive.ObserveFilters(eng.Filters(), mon.Output())
		}
		vals := gen.Next(ts)
		tagsBefore, epochsBefore := eng.Tags(), mon.Epochs()
		eng.Advance(vals)
		if ts == 0 {
			mon.Start()
		} else {
			mon.HandleStep()
		}
		out := mon.Output()
		if err := oracle.Compute(vals, gc.k, gc.e).ValidateEps(out); err != nil {
			if _, ok := mon.(*protocol.Dense); !ok {
				t.Fatalf("%s step %d: %v", gc.name, ts, err)
			}
			rec.InvalidSteps++
		}
		tags := eng.Tags()
		if d := denseOf(mon); d != nil {
			if err := d.CheckInvariants(tags); err != nil {
				t.Fatalf("%s step %d: %v", gc.name, ts, err)
			}
		}
		if _, ok := mon.(*protocol.HalfEps); ok && ts > 0 && mon.Epochs() == epochsBefore {
			for i, was := range tagsBefore {
				if was == wire.TagV2 && (tags[i] == wire.TagV1 || tags[i] == wire.TagV3) {
					rec.V2Moves++
				}
			}
		}
		buf = binary.AppendVarint(buf[:0], int64(ts))
		buf = binary.AppendVarint(buf, int64(len(out)))
		for _, id := range out {
			buf = binary.AppendVarint(buf, int64(id))
		}
		buf = binary.AppendVarint(buf, eng.Counters().Total())
		for i, f := range eng.Filters() {
			buf = binary.AppendVarint(buf, f.Lo)
			buf = binary.AppendVarint(buf, f.Hi)
			buf = append(buf, byte(tags[i]))
		}
		h.Write(buf)
		eng.EndStep()
	}
	rec.StepHash = hex.EncodeToString(h.Sum(nil))
	rec.Messages = eng.Counters().Snapshot()
	rec.Epochs = mon.Epochs()
	switch m := mon.(type) {
	case *protocol.Approx:
		rec.SubCalls, rec.Halvings = m.SubCalls(), m.DenseState().Halvings
	case *protocol.Dense:
		rec.SubCalls, rec.Halvings = m.SubCalls, m.Halvings
	case *protocol.TopKProto:
		pv := m.PhaseViolations()
		for _, ph := range []protocol.Phase{protocol.PhaseA1, protocol.PhaseA2, protocol.PhaseA3, protocol.PhaseP4} {
			rec.Phases = append(rec.Phases, pv[ph])
		}
	}
	return rec
}

// denseOf returns the DENSEPROTOCOL instance mon currently runs, if any.
func denseOf(mon protocol.Monitor) *protocol.Dense {
	switch m := mon.(type) {
	case *protocol.Dense:
		return m
	case *protocol.Approx:
		if m.InDense() {
			return m.DenseState()
		}
	}
	return nil
}

// TestProtocolGolden pins the exact behaviour of approx, standalone dense,
// half-eps and topk-protocol — every step's output, message total, filters
// and tags, the final counters by channel and kind, and the epoch and
// sub-protocol counts — against bytes recorded by an older build. The
// facade-equivalence tests compare the facade with the same protocol code,
// so they cannot see a protocol change; this test can.
func TestProtocolGolden(t *testing.T) {
	var recs []goldenRecord
	subCalls := map[string]int64{} // per monitor and n, over all traces
	for _, gc := range goldenCases() {
		r := runGolden(t, gc)
		recs = append(recs, r)
		// Vacuity guards: the traces must reach the paths worth pinning.
		switch gc.mon {
		case "approx", "dense":
			subCalls[fmt.Sprintf("%s/n=%d", gc.mon, gc.n)] += r.SubCalls
		case "half-eps":
			if r.V2Moves == 0 {
				t.Errorf("%s: no V2 node moved inside an epoch", r.Case)
			}
		case "topk-protocol":
			if !strings.Contains(r.Case, "/climber/") {
				break
			}
			for i, v := range r.Phases {
				if v == 0 {
					t.Errorf("%s: phase %v handled no violation", r.Case, protocol.Phase(i+1))
				}
			}
		}
	}
	if len(subCalls) != 4 {
		t.Errorf("SUBPROTOCOL guard saw %d monitor/size pairs, want 4", len(subCalls))
	}
	for key, calls := range subCalls {
		if calls == 0 {
			t.Errorf("%s: SUBPROTOCOL never ran", key)
		}
	}

	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("protocol behaviour diverged from %s; got:\n%s", goldenPath, got)
	}
}
