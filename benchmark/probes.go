package main

import (
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/simclock"
)

// Isolated probes: one layer alone, driven through the same public
// functions the controller calls, at the record size, run length and
// worker count a workload's geometry gives it. layers_test.go wraps the
// same probes in testing.B with b.SetBytes; the traced pass runs them
// for a fixed time and reports MB/s.

// recordBytes is the plaintext of one sealed record: the 8-byte
// address header plus the block.
func recordBytes(sp spec) int { return 8 + sp.blockSize }

// sealWorkers mirrors the controller's default pool: GOMAXPROCS capped
// at 8.
func sealWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// pathRecords is the run one memory-tree path access seals or opens:
// Z records on each level of the largest tree fitting a shard's memory.
func pathRecords(sp spec) int {
	const z = 4
	geom, err := oramtree.FitCapacity(sp.memoryBytes/int64(sp.shards)/int64(sp.blockSize), z)
	if err != nil {
		return z
	}
	return z * (geom.Levels + 1)
}

// partitionRecords is the run one shuffle quantum rewrites: a shard's
// blocks spread over sqrt(N) partitions.
func partitionRecords(sp spec) int {
	n := float64(sp.blocks / int64(sp.shards))
	return int(math.Ceil(n / math.Ceil(math.Sqrt(n))))
}

// sealProbe seals and opens one run of records.
type sealProbe struct {
	sealer  blockcipher.Sealer
	pts     [][]byte
	sealed  [][]byte
	workers int
	bytes   int64 // plaintext bytes per run
}

func newSealProbe(record, records, workers int) (*sealProbe, error) {
	rng := blockcipher.NewRNGFromString("benchmark/seal-probe")
	sealer, err := blockcipher.NewAESSealer(masterKey, rng.Fork("nonces"))
	if err != nil {
		return nil, err
	}
	p := &sealProbe{sealer: sealer, workers: workers, bytes: int64(record) * int64(records)}
	for i := 0; i < records; i++ {
		pt := make([]byte, record)
		rng.Read(pt) // the RNG's Read never fails
		p.pts = append(p.pts, pt)
		p.sealed = append(p.sealed, make([]byte, record+sealer.Overhead()))
	}
	return p, p.seal()
}

func (p *sealProbe) seal() error {
	return blockcipher.SealBatch(p.sealer, p.pts, p.sealed, p.workers)
}

func (p *sealProbe) open() error {
	return blockcipher.OpenBatch(p.sealer, p.sealed, p.pts, p.workers)
}

// fileProbe reads and writes one run of slots on a device.File.
type fileProbe struct {
	dev   *device.File
	slots []int64
	bufs  [][]byte
	bytes int64
}

// newFileProbe opens a device of `slots` slots under dir. A contiguous
// probe moves one run of `run` adjacent slots (a shuffle's partition);
// a scattered one moves `run` slots spread over the device (one
// vectored call of single-slot runs).
func newFileProbe(dir string, slotSize int, slots int64, run int, contiguous bool) (*fileProbe, error) {
	dev, err := device.NewFile(device.FileConfig{
		Path: filepath.Join(dir, "probe.dat"), Profile: device.PaperHDD(),
		SlotSize: slotSize, Slots: slots, Clock: simclock.New(),
	})
	if err != nil {
		return nil, err
	}
	p := &fileProbe{dev: dev, bytes: int64(slotSize) * int64(run)}
	stride := int64(1)
	if !contiguous {
		stride = max(2, slots/int64(run))
	}
	for i := 0; i < run; i++ {
		p.slots = append(p.slots, (int64(i)*stride)%slots)
		p.bufs = append(p.bufs, make([]byte, slotSize))
	}
	return p, p.write()
}

func (p *fileProbe) read() error  { return p.dev.ReadSlots(p.slots, p.bufs) }
func (p *fileProbe) write() error { return p.dev.WriteSlots(p.slots, p.bufs) }
func (p *fileProbe) close() error { return p.dev.Close() }

// probeTime is how long a benchmark run's traced pass runs each probe
// function.
const probeTime = 150 * time.Millisecond

// mbPerSecond runs step for d and reports bytes/1e6 per second.
func mbPerSecond(d time.Duration, bytesPerStep int64, step func() error) (float64, error) {
	start := time.Now()
	var n int64
	for time.Since(start) < d {
		if err := step(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(n*bytesPerStep) / 1e6 / time.Since(start).Seconds(), nil
}

// probeRates are the four isolated throughputs the per-layer report
// carries.
type probeRates struct {
	sealMBs, openMBs, readMBs, writeMBs float64
}

// runProbes measures the sealer on a path-length run and the file
// device on a partition-length contiguous run, at sp's geometry, for d
// each.
func runProbes(sp spec, dir string, d time.Duration) (probeRates, error) {
	var r probeRates
	sp0, err := newSealProbe(recordBytes(sp), pathRecords(sp), sealWorkers())
	if err != nil {
		return r, err
	}
	if r.sealMBs, err = mbPerSecond(d, sp0.bytes, sp0.seal); err != nil {
		return r, err
	}
	if r.openMBs, err = mbPerSecond(d, sp0.bytes, sp0.open); err != nil {
		return r, err
	}
	run := partitionRecords(sp)
	slotSize := recordBytes(sp) + sp0.sealer.Overhead()
	fp, err := newFileProbe(dir, slotSize, int64(run)*16, run, true)
	if err != nil {
		return r, err
	}
	defer fp.close() // a read-mostly scratch file; nothing to report on close
	if r.readMBs, err = mbPerSecond(d, fp.bytes, fp.read); err != nil {
		return r, err
	}
	r.writeMBs, err = mbPerSecond(d, fp.bytes, fp.write)
	return r, err
}
