// Package bench is the experiment harness: it builds the schemes with
// the paper's parameters, drives them with the paper's workload, and
// reports the same rows the evaluation section prints. One entry point
// exists per table and figure; cmd/horam-bench and the repository's
// top-level benchmarks are thin wrappers around this package.
//
// Crypto note: experiments default to the NullSealer because the
// virtual-time results are independent of real encryption cost and the
// paper's machine did AES in hardware; pass Crypto: true to run the
// full AES-GCM path (validated independently by the unit tests).
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/horam"
	"repro/internal/oramtree"
	"repro/internal/pathoram"
	"repro/internal/simclock"
	"repro/internal/treetop"
	"repro/internal/workload"
)

// Params configures one comparison experiment (Tables 5-3 / 5-4).
type Params struct {
	Name        string
	DataBytes   int64 // data set size (N·BlockSize)
	MemoryBytes int64 // memory-tier budget
	BlockSize   int
	Requests    int
	HotFrac     float64 // fraction of requests landing in the hot region
	HotSize     float64 // hot region as a fraction of the data set
	Z           int
	Seed        string
	Crypto      bool // true: AES-GCM; false: NullSealer
}

// Table53Params returns the paper's small experiment: 64 MB data set,
// 8 MB memory, 1 KB blocks, 25 000 requests, 80/20 workload.
func Table53Params() Params {
	return Params{
		Name:        "table5-3",
		DataBytes:   64 << 20,
		MemoryBytes: 8 << 20,
		BlockSize:   1 << 10,
		Requests:    25000,
		HotFrac:     0.8,
		HotSize:     0.01,
		Z:           4,
		Seed:        "table5-3",
	}
}

// Table54Params returns the paper's large experiment: 1 GB data set,
// 128 MB memory, 1 KB blocks, 500 000 requests. scale < 1 shrinks the
// data set, memory and request count proportionally (the default CLI
// uses 1/8 to keep wall time modest; pass 1 for the paper's size).
func Table54Params(scale float64) Params {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	return Params{
		Name:        "table5-4",
		DataBytes:   int64(float64(1<<30) * scale),
		MemoryBytes: int64(float64(128<<20) * scale),
		BlockSize:   1 << 10,
		Requests:    int(500000 * scale),
		HotFrac:     0.8,
		HotSize:     0.01,
		Z:           4,
		Seed:        "table5-4",
	}
}

func (p Params) blocks() int64 { return p.DataBytes / int64(p.BlockSize) }

func (p Params) sealer(rng *blockcipher.RNG) (blockcipher.Sealer, error) {
	if !p.Crypto {
		return blockcipher.NullSealer{}, nil
	}
	key := make([]byte, 32)
	prf, err := blockcipher.NewPRF([]byte("bench-master-key-0123456789abcdef"))
	if err != nil {
		return nil, err
	}
	copy(key, prf.Derive(p.Seed, 32))
	return blockcipher.NewAESSealer(key, rng.Fork("sealer"))
}

// SchemeResult is one column of a comparison table.
type SchemeResult struct {
	Scheme       string
	StorageBytes int64
	MemoryBytes  int64
	IOAccesses   int64         // paper's "Number of I/O Access"
	IOLatency    time.Duration // average storage latency per I/O access
	Shuffles     int64
	ShuffleTime  time.Duration
	TotalTime    time.Duration
	StorageStats device.Stats
}

// Comparison is one full table: H-ORAM vs the tree-top Path ORAM.
type Comparison struct {
	Params  Params
	HORAM   SchemeResult
	Path    SchemeResult
	Speedup float64 // Path.TotalTime / HORAM.TotalTime
	IORatio float64 // Path.IOAccesses / HORAM.IOAccesses
}

// RunComparison executes the experiment against both schemes.
func RunComparison(p Params) (Comparison, error) {
	h, err := runHORAM(p)
	if err != nil {
		return Comparison{}, fmt.Errorf("bench %s: H-ORAM: %w", p.Name, err)
	}
	po, err := runTreeTop(p)
	if err != nil {
		return Comparison{}, fmt.Errorf("bench %s: Path ORAM: %w", p.Name, err)
	}
	c := Comparison{Params: p, HORAM: h, Path: po}
	if h.TotalTime > 0 {
		c.Speedup = float64(po.TotalTime) / float64(h.TotalTime)
	}
	if h.IOAccesses > 0 {
		c.IORatio = float64(po.IOAccesses) / float64(h.IOAccesses)
	}
	return c, nil
}

// addresses materialises the workload trace so both schemes replay the
// identical request sequence.
func addresses(p Params) ([]int64, error) {
	rng := blockcipher.NewRNGFromString(p.Seed + "-workload")
	gen, err := workload.NewHotspot(p.blocks(), p.HotFrac, p.HotSize, rng)
	if err != nil {
		return nil, err
	}
	return workload.Take(gen, p.Requests), nil
}

// newHORAM builds the H-ORAM instance every experiment drives: the
// geometry, bucket size and sealer come from p, the randomness from
// rng, and knobs carries only the setting the experiment sweeps
// (ShuffleRatio, Stages or PrefetchDepth). The instance's Fork("oram")
// is drawn here, so a caller's later forks of rng come after it.
func newHORAM(p Params, rng *blockcipher.RNG, knobs horam.Config) (*horam.ORAM, error) {
	sealer, err := p.sealer(rng)
	if err != nil {
		return nil, err
	}
	knobs.Blocks = p.blocks()
	knobs.BlockSize = p.BlockSize
	knobs.MemoryBytes = p.MemoryBytes
	knobs.Z = p.Z
	knobs.Sealer = sealer
	knobs.RNG = rng.Fork("oram")
	return horam.New(knobs)
}

// serveReads runs one read per address through o, in order, as one
// batch.
func serveReads(o *horam.ORAM, addrs []int64) error {
	reqs := make([]*horam.Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = &horam.Request{Op: horam.OpRead, Addr: a}
	}
	return o.RunBatch(reqs)
}

func runHORAM(p Params) (SchemeResult, error) {
	o, err := newHORAM(p, blockcipher.NewRNGFromString(p.Seed+"-horam"), horam.Config{})
	if err != nil {
		return SchemeResult{}, err
	}
	addrs, err := addresses(p)
	if err != nil {
		return SchemeResult{}, err
	}
	if err := serveReads(o, addrs); err != nil {
		return SchemeResult{}, err
	}

	st := o.Stats()
	io := st.Cycles // one storage load per cycle
	var ioLat time.Duration
	if io > 0 {
		// Access-period time per load, shuffle traffic excluded. The
		// access phase overlaps memory reads with the load, which
		// dominates on the HDD profile.
		ioLat = o.AccessTime() / time.Duration(io)
	}
	return SchemeResult{
		Scheme:       "H-ORAM",
		StorageBytes: o.Partitions() * o.PartitionSlots() * int64(p.BlockSize),
		MemoryBytes:  p.MemoryBytes,
		IOAccesses:   io,
		IOLatency:    ioLat,
		Shuffles:     st.Shuffles,
		ShuffleTime:  o.ShuffleTime(),
		TotalTime:    o.Clock().Now(),
		StorageStats: o.Stor().Stats(),
	}, nil
}

func runTreeTop(p Params) (SchemeResult, error) {
	rng := blockcipher.NewRNGFromString(p.Seed + "-path")
	sealer, err := p.sealer(rng)
	if err != nil {
		return SchemeResult{}, err
	}
	// The paper's baseline stores N real blocks in a 2N-slot tree; use
	// the largest tree not exceeding 2N so a near-miss on a power-of-
	// two boundary does not double the footprint (the couple of slots
	// of slack land in the stash).
	geom, err := oramtree.FitCapacity(2*p.blocks(), p.Z)
	if err != nil {
		return SchemeResult{}, err
	}
	cfg := pathoram.Config{
		Blocks:    p.blocks(),
		BlockSize: p.BlockSize,
		Z:         p.Z,
		Capacity:  geom.Slots(),
		Sealer:    sealer,
		RNG:       rng.Fork("oram"),
	}
	clk := simclock.New()
	slotSize := cfg.SlotSize()
	// The budget counts plaintext blocks (paper accounting), so the
	// memory device must hold that many sealed slots.
	memSlots := p.MemoryBytes / int64(p.BlockSize)
	mem, err := device.New(device.DRAM(), slotSize, maxI64(memSlots, 1), clk)
	if err != nil {
		return SchemeResult{}, err
	}
	// Storage holds the rest of the 2N-slot tree.
	stor, err := device.New(device.PaperHDD(), slotSize, 4*p.blocks(), clk)
	if err != nil {
		return SchemeResult{}, err
	}
	o, err := treetop.New(cfg, mem, stor, p.MemoryBytes)
	if err != nil {
		return SchemeResult{}, err
	}
	addrs, err := addresses(p)
	if err != nil {
		return SchemeResult{}, err
	}
	for _, a := range addrs {
		if _, err := o.Read(a); err != nil {
			return SchemeResult{}, err
		}
	}
	storage := stor.Stats()
	n := int64(len(addrs))
	var ioLat time.Duration
	if n > 0 {
		ioLat = storage.Busy / time.Duration(n)
	}
	return SchemeResult{
		Scheme: "Path ORAM",
		// The paper prints the tree footprint beyond memory: ~2N·B.
		StorageBytes: o.Geometry().Slots()*int64(p.BlockSize) - p.MemoryBytes,
		MemoryBytes:  p.MemoryBytes,
		IOAccesses:   n, // one path-I/O event per request
		IOLatency:    ioLat,
		Shuffles:     0,
		ShuffleTime:  0,
		TotalTime:    clk.Now(),
		StorageStats: storage,
	}, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FormatComparison renders the comparison in the paper's table layout.
func FormatComparison(c Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s data set, %d requests (80/20 hotspot) ==\n",
		c.Params.Name, byteSize(c.Params.DataBytes), c.Params.Requests)
	fmt.Fprintf(&b, "%-28s %18s %18s\n", "", "H-ORAM", "Path ORAM")
	fmt.Fprintf(&b, "%-28s %18s %18s\n", "Storage/Memory Size",
		byteSize(c.HORAM.StorageBytes)+" / "+byteSize(c.HORAM.MemoryBytes),
		byteSize(c.Path.StorageBytes)+" / "+byteSize(c.Path.MemoryBytes))
	fmt.Fprintf(&b, "%-28s %18d %18d\n", "Number of I/O Access", c.HORAM.IOAccesses, c.Path.IOAccesses)
	fmt.Fprintf(&b, "%-28s %18s %18s\n", "I/O Latency (per access)", c.HORAM.IOLatency, c.Path.IOLatency)
	fmt.Fprintf(&b, "%-28s %12s x %-3d %18s\n", "Shuffle Time",
		perShuffle(c.HORAM), c.HORAM.Shuffles, "N/A")
	fmt.Fprintf(&b, "%-28s %18s %18s\n", "Total Time",
		c.HORAM.TotalTime.Round(time.Millisecond), c.Path.TotalTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-28s %18.1fx %17.1fx\n", "Speedup / IO reduction", c.Speedup, c.IORatio)
	return b.String()
}

func perShuffle(r SchemeResult) string {
	if r.Shuffles == 0 {
		return "0"
	}
	return (r.ShuffleTime / time.Duration(r.Shuffles)).Round(time.Millisecond).String()
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.4g GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.4g MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.4g KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
