package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"topkmon/topk"
)

// The wire shapes of topkd's /topk and /cost responses, field for field,
// so a directly built monitor renders the bytes a correct server serves.
type topkJSON struct {
	Step int64 `json:"step"`
	K    int   `json:"k"`
	TopK []int `json:"topk"`
}

type healthJSON struct {
	State    string `json:"state"`
	StaleFor int64  `json:"staleFor"`
	Err      string `json:"err,omitempty"`
}

type costJSON struct {
	Algorithm        string     `json:"algorithm"`
	Steps            int64      `json:"steps"`
	Epochs           int64      `json:"epochs"`
	Messages         int64      `json:"messages"`
	NodeToServer     int64      `json:"nodeToServer"`
	Unicasts         int64      `json:"unicasts"`
	Broadcasts       int64      `json:"broadcasts"`
	MaxRoundsPerStep int64      `json:"maxRoundsPerStep"`
	MaxMessageBits   int        `json:"maxMessageBits"`
	IndexFallbacks   int64      `json:"indexFallbacks"`
	DroppedMsgs      int64      `json:"droppedMsgs"`
	DupMsgs          int64      `json:"dupMsgs"`
	Retries          int64      `json:"retries"`
	Resyncs          int64      `json:"resyncs"`
	StaleSteps       int64      `json:"staleSteps"`
	Check            string     `json:"check"`
	Health           healthJSON `json:"health"`
	SilentInvalid    bool       `json:"silentInvalid"`
}

// newTenantMonitor builds tenant i's monitor directly, with the config
// topkd is given for it. opts are appended (the traced run injects its
// timing decorators there).
func newTenantMonitor(w Workload, i int, opts ...topk.Option) (*topk.Monitor, error) {
	e, err := w.epsilon()
	if err != nil {
		return nil, err
	}
	algo, err := topk.ParseAlgorithm(w.Monitor)
	if err != nil {
		return nil, err
	}
	base := []topk.Option{topk.WithNodes(w.Nodes), topk.WithMonitor(algo), topk.WithSeed(tenantSeed(i))}
	return topk.New(w.K, e, append(base, opts...)...)
}

func encodeJSON(v any) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(v) // a plain struct always encodes
	return b.Bytes()
}

// renderTopK and renderCost produce the bodies topkd serves for m.
func renderTopK(m *topk.Monitor) []byte {
	ids := m.TopK(make([]int, 0, m.K()))
	return encodeJSON(topkJSON{Step: m.Steps(), K: m.K(), TopK: ids})
}

func renderCost(m *topk.Monitor) []byte {
	c := m.Cost()
	chk := m.Check()
	h := m.Health()
	check := "ok"
	if chk != nil {
		check = chk.Error()
	}
	hj := healthJSON{State: h.State.String(), StaleFor: h.StaleFor}
	if h.Err != nil {
		hj.Err = h.Err.Error()
	}
	return encodeJSON(costJSON{
		Algorithm: m.AlgorithmName(), Steps: c.Steps, Epochs: m.Epochs(),
		Messages: c.Messages, NodeToServer: c.NodeToServer, Unicasts: c.Unicasts,
		Broadcasts: c.Broadcasts, MaxRoundsPerStep: c.MaxRoundsPerStep,
		MaxMessageBits: c.MaxMessageBits, IndexFallbacks: c.IndexFallbacks,
		DroppedMsgs: c.DroppedMsgs, DupMsgs: c.DupMsgs, Retries: c.Retries,
		Resyncs: c.Resyncs, StaleSteps: c.StaleSteps,
		Check: check, Health: hj, SilentInvalid: chk != nil && h.State == topk.Fresh,
	})
}

// replayTenant commits batches into a directly built monitor and renders
// its /topk and /cost bodies.
func replayTenant(w Workload, i int, batches [][]topk.Update) ([2][]byte, error) {
	m, err := newTenantMonitor(w, i)
	if err != nil {
		return [2][]byte{}, err
	}
	defer m.Close()
	for _, b := range batches {
		if err := m.UpdateBatch(b); err != nil {
			return [2][]byte{}, err
		}
	}
	return [2][]byte{renderTopK(m), renderCost(m)}, nil
}

// checkScrape compares one tenant's served bodies with the replay of the
// batches the server acknowledged: byte-identical /topk and /cost, the
// referee's "ok", no silent-invalid verdict, and steps == acked.
func checkScrape(w Workload, i int, acked [][]topk.Update, served [2][]byte) error {
	want, err := replayTenant(w, i, acked)
	if err != nil {
		return fmt.Errorf("%s: replay: %w", tenantName(i), err)
	}
	var c costJSON
	if err := json.Unmarshal(served[1], &c); err != nil {
		return fmt.Errorf("%s: /cost: %w", tenantName(i), err)
	}
	switch {
	case c.Check != "ok":
		return fmt.Errorf("%s: referee check failed: %s", tenantName(i), c.Check)
	case c.SilentInvalid:
		return fmt.Errorf("%s: silent-invalid output", tenantName(i))
	case c.Steps != int64(len(acked)):
		return fmt.Errorf("%s: %d steps committed, %d batches acked", tenantName(i), c.Steps, len(acked))
	case !bytes.Equal(served[0], want[0]):
		return fmt.Errorf("%s: /topk differs from the direct replay:\n served %s replay %s", tenantName(i), served[0], want[0])
	case !bytes.Equal(served[1], want[1]):
		return fmt.Errorf("%s: /cost differs from the direct replay:\n served %s replay %s", tenantName(i), served[1], want[1])
	}
	return nil
}

// costMessages extracts "messages" from a /cost body.
func costMessages(b []byte) (int64, error) {
	var c costJSON
	if err := json.Unmarshal(b, &c); err != nil {
		return 0, err
	}
	return c.Messages, nil
}
