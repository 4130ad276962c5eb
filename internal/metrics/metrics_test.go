package metrics

import (
	"strings"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Count(NodeToServer, "probe-reply", 24)
	c.Count(NodeToServer, "probe-reply", 24)
	c.Count(Broadcast, "halt", 8)
	if c.Total() != 3 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.ByChannel(NodeToServer) != 2 || c.ByChannel(Broadcast) != 1 {
		t.Error("channel counts wrong")
	}
	if c.ByKind("probe-reply") != 2 || c.ByKind("halt") != 1 {
		t.Error("kind counts wrong")
	}
	if c.MaxBits() != 24 {
		t.Errorf("MaxBits = %d", c.MaxBits())
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] != "halt" {
		t.Errorf("Kinds = %v", kinds)
	}
}

func TestZeroValueCounters(t *testing.T) {
	var c Counters
	c.Count(Broadcast, "x", 1)
	if c.Total() != 1 {
		t.Error("zero-value Counters must be usable")
	}
}

func TestRoundTracking(t *testing.T) {
	c := NewCounters()
	c.Rounds(5)
	c.EndStep()
	c.Rounds(3)
	c.EndStep()
	if c.MaxRoundsPerStep() != 5 {
		t.Errorf("MaxRoundsPerStep = %d", c.MaxRoundsPerStep())
	}
	if c.Steps() != 2 {
		t.Errorf("Steps = %d", c.Steps())
	}
	c.Rounds(9) // current open step counts too
	if c.MaxRoundsPerStep() != 9 {
		t.Errorf("open-step rounds ignored: %d", c.MaxRoundsPerStep())
	}
}

func TestSnapshotSub(t *testing.T) {
	c := NewCounters()
	c.Count(NodeToServer, "a", 1)
	s1 := c.Snapshot()
	c.Count(NodeToServer, "a", 1)
	c.Count(Broadcast, "b", 1)
	diff := c.Snapshot().Sub(s1)
	if diff.Total() != 2 || diff.ByKind["a"] != 1 || diff.ByKind["b"] != 1 {
		t.Errorf("Sub wrong: %+v", diff)
	}
}

func TestIndexFallbackCounting(t *testing.T) {
	c := NewCounters()
	c.IndexFallback()
	c.IndexFallback()
	if c.IndexFallbacks() != 2 {
		t.Errorf("IndexFallbacks = %d, want 2", c.IndexFallbacks())
	}
	s1 := c.Snapshot()
	if s1.IndexFallbacks != 2 {
		t.Errorf("Snapshot.IndexFallbacks = %d, want 2", s1.IndexFallbacks)
	}
	c.IndexFallback()
	if d := c.Snapshot().Sub(s1); d.IndexFallbacks != 1 {
		t.Errorf("Sub.IndexFallbacks = %d, want 1", d.IndexFallbacks)
	}
	c.Reset()
	if c.IndexFallbacks() != 0 {
		t.Errorf("Reset left IndexFallbacks = %d", c.IndexFallbacks())
	}
}

func TestFaultCounters(t *testing.T) {
	c := NewCounters()
	c.DroppedMsg()
	c.DroppedMsg()
	c.DupMsg()
	c.Retry()
	c.Retry()
	c.Retry()
	c.Resync()
	c.StaleStep()
	if c.DroppedMsgs() != 2 || c.DupMsgs() != 1 || c.Retries() != 3 ||
		c.Resyncs() != 1 || c.StaleSteps() != 1 {
		t.Errorf("fault counters wrong: drop=%d dup=%d retry=%d resync=%d stale=%d",
			c.DroppedMsgs(), c.DupMsgs(), c.Retries(), c.Resyncs(), c.StaleSteps())
	}
	s1 := c.Snapshot()
	if s1.DroppedMsgs != 2 || s1.DupMsgs != 1 || s1.Retries != 3 ||
		s1.Resyncs != 1 || s1.StaleSteps != 1 {
		t.Errorf("Snapshot fault counters wrong: %+v", s1)
	}
	c.DroppedMsg()
	c.Resync()
	d := c.Snapshot().Sub(s1)
	if d.DroppedMsgs != 1 || d.DupMsgs != 0 || d.Retries != 0 ||
		d.Resyncs != 1 || d.StaleSteps != 0 {
		t.Errorf("Sub fault counters wrong: %+v", d)
	}
	c.Reset()
	if c.DroppedMsgs()|c.DupMsgs()|c.Retries()|c.Resyncs()|c.StaleSteps() != 0 {
		t.Error("Reset left fault counters nonzero")
	}
}

func TestChannelString(t *testing.T) {
	if NodeToServer.String() == "" || ServerToNode.String() == "" || Broadcast.String() == "" {
		t.Error("channels must render")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", int64(12))
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Errorf("table missing content:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Errorf("CSV rows wrong: %q", csv)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "longheader")
	tb.AddRow("xxxxxxxxxx", 1)
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("header and separator must align")
	}
}
