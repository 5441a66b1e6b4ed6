package record_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/horam"
	"repro/internal/oramtree"
	"repro/internal/pathoram"
)

// Constant-time mode's bus-parity golden. The horam and pathoram
// streams of TestGoldenDeviceImages are replayed with ConstantTime on
// and must land on the very same device images and op counts: the mode
// changes how the trusted controller computes, never what it puts on
// the bus. The expected values are read from the golden table itself,
// so the two tests cannot drift apart.
var goldenCT = map[string]func(t *testing.T) (oram, []image){
	"horam":    buildHORAMConstantTime,
	"pathoram": buildPathORAMConstantTime,
}

func buildHORAMConstantTime(t *testing.T) (oram, []image) {
	sealer, rng := goldenParts(t, "horam")
	cfg := horam.Config{Blocks: goldenBlocks, BlockSize: goldenBlockSize, Z: 4, Sealer: sealer, RNG: rng, ConstantTime: true}
	cfg.MemoryBytes = 32 * int64(cfg.SlotSize())
	o, err := horam.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, []image{o.Mem(), o.Stor()}
}

func buildPathORAMConstantTime(t *testing.T) (oram, []image) {
	sealer, rng := goldenParts(t, "pathoram")
	cfg := pathoram.Config{Blocks: goldenBlocks, BlockSize: goldenBlockSize, Z: 4, Sealer: sealer, RNG: rng, ConstantTime: true}
	geom, err := oramtree.ForCapacity(2*goldenBlocks, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	dev := goldenSim(t, cfg.SlotSize(), geom.Slots())
	o, err := pathoram.New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, []image{dev}
}

func TestGoldenDeviceImagesConstantTime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, g := range golden {
			build, ok := goldenCT[g.scheme]
			if !ok {
				continue // the scheme has no constant-time mode
			}
			t.Run(fmt.Sprintf("%s/procs=%d", g.scheme, procs), func(t *testing.T) {
				o, devs := build(t)
				runGoldenStream(t, o)
				var ops int64
				for i, dev := range devs {
					ops += dev.Stats().Ops()
					if got := imageSHA(t, dev); got != g.images[i] {
						t.Errorf("device %d image SHA-256 = %s, golden %s", i, got, g.images[i])
					}
				}
				if ops != g.ops {
					t.Errorf("device ops = %d, golden %d", ops, g.ops)
				}
			})
		}
	}
}
