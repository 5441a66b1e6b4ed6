package blockcipher

import "sync/atomic"

// Process-global sealer throughput totals, fed by the four package
// helpers SealInto/OpenInto/SealBatch/OpenBatch — every seal and open
// of internal/record goes through one of them, each record counted
// once. (Direct Sealer.Seal/Open method calls are not counted.) Plain
// atomics keep the cost to one add per call, so the counters are
// always on. internal/engine exposes them on /metrics as
// Timing-class gauges: being process-global they accumulate across
// every sealer in the process, which makes them throughput telemetry,
// not a per-workload public observable — they must never join the
// audited snapshot.
var (
	sealedBytes atomic.Int64
	openedBytes atomic.Int64
)

func countBytes(c *atomic.Int64, bufs [][]byte) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	c.Add(n)
}

// Throughput returns the cumulative plaintext bytes sealed and sealed
// bytes opened by this process.
func Throughput() (sealed, opened int64) {
	return sealedBytes.Load(), openedBytes.Load()
}
