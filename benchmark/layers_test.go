package main

import "testing"

// Layer probes in isolation: one layer alone, driven through the public
// functions the controller calls, with b.SetBytes so `go test -bench`
// prints MB/s. The traced pass reports the same probes as
// blockcipher.*_mb_per_s and device.*_mb_per_s.
//
//	go test -run '^$' -bench . -benchtime 200x ./benchmark

func benchStep(b *testing.B, bytes int64, step func() error) {
	b.Helper()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealer seals and opens one memory-tree path of records at
// each workload's record size, with the controller's worker count.
func BenchmarkSealer(b *testing.B) {
	for _, sp := range workloads {
		p, err := newSealProbe(recordBytes(sp), pathRecords(sp), sealWorkers())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sp.name+"/SealBatch", func(b *testing.B) { benchStep(b, p.bytes, p.seal) })
		b.Run(sp.name+"/OpenBatch", func(b *testing.B) { benchStep(b, p.bytes, p.open) })
	}
}

// BenchmarkFileDevice moves one run of slots through device.File: a
// partition-length contiguous run (what a shuffle quantum reads and
// rewrites) and a path-length scattered one (single-slot accesses in one
// vectored call), at block_pipelined's slot size.
func BenchmarkFileDevice(b *testing.B) {
	sp, _ := findWorkload("block_pipelined")
	one, err := newSealProbe(recordBytes(sp), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	slotSize := recordBytes(sp) + one.sealer.Overhead()
	for _, shape := range []struct {
		name       string
		run        int
		contiguous bool
	}{
		{"partition", partitionRecords(sp), true},
		{"path", pathRecords(sp), false},
	} {
		p, err := newFileProbe(b.TempDir(), slotSize, sp.blocks/int64(sp.shards), shape.run, shape.contiguous)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/ReadSlots", func(b *testing.B) { benchStep(b, p.bytes, p.read) })
		b.Run(shape.name+"/WriteSlots", func(b *testing.B) { benchStep(b, p.bytes, p.write) })
		if err := p.close(); err != nil {
			b.Fatal(err)
		}
	}
}
