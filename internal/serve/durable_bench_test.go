package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"topkmon/topk"
)

// benchConfig is the tenant shape both durability benchmarks use: big
// enough that the monitor does real work per step, small enough that the
// WAL append (not the engine) dominates the policy comparison.
var benchConfig = Config{
	Nodes: 256, K: 8, Eps: "1/8", Monitor: "approx", Seed: 7,
}

// benchBatch builds a deterministic 16-update batch per step.
func benchBatch(rng *rand.Rand, nodes int) []topk.Update {
	batch := make([]topk.Update, 16)
	for i := range batch {
		batch[i] = topk.Update{Node: rng.Intn(nodes), Value: int64(rng.Intn(1 << 20))}
	}
	return batch
}

// BenchmarkDurableCommit measures the per-batch ingest cost of each fsync
// policy against the volatile baseline — the headline "what does
// durability cost" number for BENCH.md. Every iteration commits one
// 16-update batch with a fresh seq through the full validate → journal →
// commit path. fsync=always pays a disk flush per batch; interval and
// never pay only the buffered append + CRC; volatile pays nothing.
func BenchmarkDurableCommit(b *testing.B) {
	cases := []struct {
		name  string
		fsync string // "" = volatile (no data dir)
	}{
		{"volatile", ""},
		{"fsync=never", "never"},
		{"fsync=interval", "interval"},
		{"fsync=always", "always"},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{}
			if bc.fsync != "" {
				opts.Durability = Durability{
					Dir: b.TempDir(), Fsync: bc.fsync, SnapshotEvery: 1 << 30,
				}
			}
			s, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tn, err := s.pool.Create("bench", benchConfig)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			batch := benchBatch(rng, benchConfig.Nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tn.CommitBatch(batch, "bench-client", uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures boot-time replay cost as a function of log
// length: each iteration opens a server over a prepared data dir holding
// one tenant with `steps` journaled batches and replays it to the live
// monitor. This is the restart-latency curve that motivates the
// snapshot-by-replay compaction (CommitReset) and the SnapshotEvery
// durability points.
func BenchmarkRecovery(b *testing.B) {
	for _, steps := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			dir := b.TempDir()
			s, err := New(Options{Durability: Durability{
				Dir: dir, Fsync: "never", SnapshotEvery: 1 << 30,
			}})
			if err != nil {
				b.Fatal(err)
			}
			tn, err := s.pool.Create("bench", benchConfig)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < steps; i++ {
				batch := benchBatch(rng, benchConfig.Nodes)
				if _, _, err := tn.CommitBatch(batch, "bench-client", uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := New(Options{Durability: Durability{
					Dir: dir, Fsync: "never", SnapshotEvery: 1 << 30,
				}})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				tn, err := rs.pool.Get("bench")
				if err != nil || tn.Mon.Steps() != int64(steps) {
					b.Fatalf("recovered %v steps, want %d (err=%v)", tn, steps, err)
				}
				rs.Close()
				b.StartTimer()
			}
		})
	}
}
