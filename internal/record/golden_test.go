package record_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/horam"
	"repro/internal/oramtree"
	"repro/internal/partitionoram"
	"repro/internal/pathoram"
	"repro/internal/simclock"
	"repro/internal/sqrtoram"
)

// The format-stability golden. A fixed-seed read/write stream runs
// through each of the four schemes over device.Sim with a real
// AESSealer, and the SHA-256 of every device's final image plus the
// metered device-op count are pinned below as literals. Record layout,
// sealer framing, nonce order and bus trace all feed those numbers, so
// a change to any of them — deliberate (ROADMAP 2(a)'s cipher flip) or
// not — shows up here as a reviewed diff of this table. There is no
// -update flag: a new value is pasted in by hand from the failure
// message, next to the reason it moved.
//
// The values were captured at the commit before internal/record
// existed (four private codecs), and hold at any GOMAXPROCS: the seal
// worker pool is sized from it, and batch sealing draws its nonces
// serially whatever the pool size.
var golden = []struct {
	scheme string
	build  func(t *testing.T) (oram, []image)
	images []string // SHA-256 of each device's final image, in build order
	ops    int64    // metered device reads + writes over the stream
}{
	// Images re-pinned when AESSealer became AES-GCM (32 B overhead, was 48); ops unchanged.
	// Re-pinned when the memory tree's top half moved into the controller: ops drop by exactly the top-level slot touches.
	// Re-pinned when a miss became served by its own load: ops drop by exactly the cycles a miss no longer spends.
	{"horam", buildHORAM, []string{
		"bb9a4f582ab1d75eb8fed184e573ddbbca11c1b2ad16c43b5ab06a257e37b37f",
		"e190413a2e136ca5e37feba56d07e0cbc2dce8e5bbc158da189dde6cf24b4b54",
	}, 17536},
	{"pathoram", buildPathORAM, []string{
		"a9c3c7589873fc66f60c4ff568a25635367366f35e00e113040cc3effde558cc",
	}, 12288},
	{"sqrtoram", buildSqrtORAM, []string{
		"e933ebf0d9f1ca001d07f3abcf589cca0a97203772d44d3de2c4b17dd135d148",
	}, 18688},
	{"partitionoram", buildPartitionORAM, []string{
		"a350ac733b45cd19398b4df3584b7e2ef45121a88ab72e2bff79bb936dd25396",
	}, 2554},
}

const (
	goldenBlocks    = 64
	goldenBlockSize = 32
	goldenOps       = 256
)

type oram interface {
	Read(addr int64) ([]byte, error)
	Write(addr int64, data []byte) error
}

// image is the part of device.Backend the golden reads back.
type image interface {
	Slots() int64
	SlotSize() int
	ReadRaw(slot int64, dst []byte) error
	Stats() device.Stats
}

// goldenParts derives one scheme's sealer and controller RNG from its
// name, the way every scheme's own tests do.
func goldenParts(t *testing.T, scheme string) (blockcipher.Sealer, *blockcipher.RNG) {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(7*i + 3)
	}
	rng := blockcipher.NewRNGFromString("record-golden/" + scheme)
	sealer, err := blockcipher.NewAESSealer(key, rng.Fork("sealer"))
	if err != nil {
		t.Fatal(err)
	}
	return sealer, rng.Fork("oram")
}

func goldenSim(t *testing.T, slotSize int, slots int64) *device.Sim {
	t.Helper()
	dev, err := device.New(device.PaperHDD(), slotSize, slots, simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func buildHORAM(t *testing.T) (oram, []image) {
	sealer, rng := goldenParts(t, "horam")
	cfg := horam.Config{Blocks: goldenBlocks, BlockSize: goldenBlockSize, Z: 4, Sealer: sealer, RNG: rng}
	cfg.MemoryBytes = 32 * int64(cfg.SlotSize()) // a few shuffle periods per stream
	o, err := horam.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, []image{o.Mem(), o.Stor()}
}

func buildPathORAM(t *testing.T) (oram, []image) {
	sealer, rng := goldenParts(t, "pathoram")
	cfg := pathoram.Config{Blocks: goldenBlocks, BlockSize: goldenBlockSize, Z: 4, Sealer: sealer, RNG: rng}
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

func buildSqrtORAM(t *testing.T) (oram, []image) {
	sealer, rng := goldenParts(t, "sqrtoram")
	cfg := sqrtoram.Config{Blocks: goldenBlocks, BlockSize: goldenBlockSize, Sealer: sealer, RNG: rng}
	dev := goldenSim(t, cfg.SlotSize(), goldenBlocks+8) // N + ⌈√N⌉ dummies
	o, err := sqrtoram.New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, []image{dev}
}

func buildPartitionORAM(t *testing.T) (oram, []image) {
	sealer, rng := goldenParts(t, "partitionoram")
	cfg := partitionoram.Config{Blocks: goldenBlocks, BlockSize: goldenBlockSize, Sealer: sealer, RNG: rng}
	dev := goldenSim(t, cfg.SlotSize(), 8*16) // √N partitions of 2·√N slots
	o, err := partitionoram.New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, []image{dev}
}

// runGoldenStream drives the fixed stream through o, checking every
// returned block against a map model on the way.
func runGoldenStream(t *testing.T, o oram) {
	t.Helper()
	rng := blockcipher.NewRNGFromString("record-golden/stream")
	model := make(map[int64][]byte)
	for i := 0; i < goldenOps; i++ {
		addr := rng.Int63n(goldenBlocks)
		if rng.Intn(2) == 0 {
			data := make([]byte, goldenBlockSize)
			rng.Read(data)
			if err := o.Write(addr, data); err != nil {
				t.Fatalf("op %d: write %d: %v", i, addr, err)
			}
			model[addr] = data
			continue
		}
		got, err := o.Read(addr)
		if err != nil {
			t.Fatalf("op %d: read %d: %v", i, addr, err)
		}
		want := model[addr]
		if want == nil {
			want = make([]byte, goldenBlockSize)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: read %d = %x, want %x", i, addr, got, want)
		}
	}
}

func imageSHA(t *testing.T, dev image) string {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, dev.SlotSize())
	for slot := int64(0); slot < dev.Slots(); slot++ {
		if err := dev.ReadRaw(slot, buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDeviceImages(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs) // read at construction: sizes the seal pool
		for _, g := range golden {
			t.Run(fmt.Sprintf("%s/procs=%d", g.scheme, procs), func(t *testing.T) {
				o, devs := g.build(t)
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
