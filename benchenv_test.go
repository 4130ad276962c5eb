package topkmon

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestMain stamps the execution environment into every test/benchmark run
// of the root package — and therefore into every BENCH_*.json `make bench`
// captures (the test2json stream records stdout as Output events). The
// ROADMAP's multi-core claims (experiment fan-out ≥2× on multi-core) are
// only attributable when each snapshot records what hardware produced it:
// gomaxprocs/numcpu identify the parallelism available.
func TestMain(m *testing.M) {
	fmt.Printf("bench-env: go=%s goos=%s goarch=%s gomaxprocs=%d numcpu=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	os.Exit(m.Run())
}
