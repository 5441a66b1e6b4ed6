package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/partitionoram"
	"repro/internal/simclock"
	"repro/internal/sqrtoram"
)

// ShootoutRow is one scheme's result on the shared shootout workload.
type ShootoutRow struct {
	Scheme       string
	TotalTime    time.Duration
	StorageOps   int64
	StorageBytes int64 // footprint on the slow tier
	Note         string
}

// shootoutParams is the shared scenario: 8 MB data, 1 MB memory tier
// where the scheme has one, 1 KB blocks, 4000 hotspot requests.
func shootoutParams() Params {
	return Params{
		Name:        "shootout",
		DataBytes:   8 << 20,
		MemoryBytes: 1 << 20,
		BlockSize:   1 << 10,
		Requests:    4000,
		HotFrac:     0.8,
		HotSize:     0.01,
		Z:           4,
		Seed:        "shootout",
	}
}

// RunShootout drives all four schemes of the paper's background
// section with the identical request trace: H-ORAM, the tree-top
// Path ORAM baseline, square-root ORAM and partition ORAM. It makes
// the motivation of §3 measurable — which scheme pays tree I/O, which
// pays shuffle stalls, and what the hybrid buys.
func RunShootout() ([]ShootoutRow, error) { return runShootout(shootoutParams()) }

func runShootout(p Params) ([]ShootoutRow, error) {
	addrs, err := addresses(p)
	if err != nil {
		return nil, err
	}
	var rows []ShootoutRow

	// H-ORAM.
	h, err := runHORAM(p)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ShootoutRow{
		Scheme: "H-ORAM", TotalTime: h.TotalTime,
		StorageOps: h.StorageStats.Ops(), StorageBytes: h.StorageBytes,
		Note: fmt.Sprintf("%d shuffles", h.Shuffles),
	})

	// Tree-top Path ORAM.
	po, err := runTreeTop(p)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ShootoutRow{
		Scheme: "Path ORAM (tree-top)", TotalTime: po.TotalTime,
		StorageOps: po.StorageStats.Ops(), StorageBytes: po.StorageBytes,
		Note: "per-access tree path I/O",
	})

	// Square-root ORAM: entirely on storage, O(4N) reshuffles.
	sq, err := runSqrt(p, addrs)
	if err != nil {
		return nil, err
	}
	rows = append(rows, sq)

	// Partition ORAM: per-partition shuffles.
	pa, err := runPartition(p, addrs)
	if err != nil {
		return nil, err
	}
	rows = append(rows, pa)
	return rows, nil
}

func runSqrt(p Params, addrs []int64) (ShootoutRow, error) {
	rng := blockcipher.NewRNGFromString(p.Seed + "-sqrt")
	cfg := sqrtoram.Config{
		Blocks:    p.blocks(),
		BlockSize: p.BlockSize,
		Sealer:    blockcipher.NullSealer{},
		RNG:       rng.Fork("oram"),
	}
	clk := simclock.New()
	dev, err := device.New(device.PaperHDD(), cfg.SlotSize(), p.blocks()+256, clk)
	if err != nil {
		return ShootoutRow{}, err
	}
	o, err := sqrtoram.New(cfg, dev)
	if err != nil {
		return ShootoutRow{}, err
	}
	for _, a := range addrs {
		if _, err := o.Read(a); err != nil {
			return ShootoutRow{}, err
		}
	}
	return ShootoutRow{
		Scheme:       "Square-root ORAM",
		TotalTime:    clk.Now(),
		StorageOps:   dev.Stats().Ops(),
		StorageBytes: (p.blocks() + o.Dummies()) * int64(p.BlockSize),
		Note:         fmt.Sprintf("%d full reshuffles (4 passes each)", o.Stats().Shuffles),
	}, nil
}

func runPartition(p Params, addrs []int64) (ShootoutRow, error) {
	rng := blockcipher.NewRNGFromString(p.Seed + "-part")
	cfg := partitionoram.Config{
		Blocks:    p.blocks(),
		BlockSize: p.BlockSize,
		Sealer:    blockcipher.NullSealer{},
		RNG:       rng.Fork("oram"),
	}
	clk := simclock.New()
	dev, err := device.New(device.PaperHDD(), cfg.SlotSize(), 4*p.blocks(), clk)
	if err != nil {
		return ShootoutRow{}, err
	}
	o, err := partitionoram.New(cfg, dev)
	if err != nil {
		return ShootoutRow{}, err
	}
	for _, a := range addrs {
		if _, err := o.Read(a); err != nil {
			return ShootoutRow{}, err
		}
	}
	return ShootoutRow{
		Scheme:       "Partition ORAM",
		TotalTime:    clk.Now(),
		StorageOps:   dev.Stats().Ops(),
		StorageBytes: o.Partitions() * o.Partitions() * 2 * int64(p.BlockSize),
		Note:         fmt.Sprintf("%d partition shuffles", o.Stats().PartitionShuffle),
	}, nil
}

// FormatShootout renders the scheme comparison.
func FormatShootout(rows []ShootoutRow) string {
	var b strings.Builder
	b.WriteString("== scheme shootout (8 MB data, 1 MB memory, 4k hotspot requests, identical trace) ==\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %12s  %s\n", "scheme", "total", "storage ops", "footprint", "note")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12s %12d %12s  %s\n",
			r.Scheme, r.TotalTime.Round(time.Millisecond), r.StorageOps, byteSize(r.StorageBytes), r.Note)
	}
	return b.String()
}

// NoShuffleResult captures the §5.1 non-shuffle (Figure 5-2) case.
type NoShuffleResult struct {
	WithShuffle    time.Duration // H-ORAM, shuffle on the critical path
	Background     time.Duration // H-ORAM, shuffle off the critical path
	Baseline       time.Duration // tree-top Path ORAM
	GainWith       float64
	GainBackground float64
	// TheoreticalCap is the paper's analytic block-count bound
	// 2·Z·log2(2N/n) (32x for the Table 5-1 geometry). It weights
	// reads and writes equally; the measured latency gain can exceed
	// it because the baseline is write-heavy and HDD writes are ~2x
	// slower than reads (§5.2 notes the same effect).
	TheoreticalCap float64
}

// RunNoShuffleCase measures H-ORAM with the shuffle on and off the
// critical path against the baseline, on the Table 5-3 geometry
// shrunk 4x for wall time. Both H-ORAM rows come from one run: the
// global clock is its access periods plus its shuffle periods, so a
// shuffle run offline or on the remote server (Figure 5-2) leaves the
// access time alone on the critical path.
func RunNoShuffleCase() (NoShuffleResult, error) { return runNoShuffleCase(noShuffleParams()) }

// noShuffleParams is the non-shuffle case's instance.
func noShuffleParams() Params {
	return Params{
		Name:        "noshuffle",
		DataBytes:   16 << 20,
		MemoryBytes: 2 << 20,
		BlockSize:   1 << 10,
		Requests:    12000,
		HotFrac:     0.8,
		HotSize:     0.01,
		Z:           4,
		Seed:        "noshuffle",
	}
}

func runNoShuffleCase(p Params) (NoShuffleResult, error) {
	h, err := runHORAM(p)
	if err != nil {
		return NoShuffleResult{}, err
	}
	base, err := runTreeTop(p)
	if err != nil {
		return NoShuffleResult{}, err
	}
	out := NoShuffleResult{
		WithShuffle: h.TotalTime,
		Background:  h.TotalTime - h.ShuffleTime,
		Baseline:    base.TotalTime,
	}
	out.GainWith = float64(out.Baseline) / float64(out.WithShuffle)
	out.GainBackground = float64(out.Baseline) / float64(out.Background)

	// The paper's 32x bound is 2·Z·log2(2N/n) single-block-read units.
	n := float64(p.MemoryBytes / int64(p.BlockSize))
	N := float64(p.blocks())
	out.TheoreticalCap = 2 * 4 * log2(2*N/n)
	return out, nil
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}

// FormatNoShuffle renders the non-shuffle-case comparison.
func FormatNoShuffle(r NoShuffleResult) string {
	var b strings.Builder
	b.WriteString("== §5.1 non-shuffle case (Figure 5-2: shuffle off the critical path) ==\n")
	fmt.Fprintf(&b, "%-38s %12s %10s\n", "", "total", "gain")
	fmt.Fprintf(&b, "%-38s %12s %10s\n", "Path ORAM baseline", r.Baseline.Round(time.Millisecond), "1x")
	fmt.Fprintf(&b, "%-38s %12s %9.1fx\n", "H-ORAM, shuffle on critical path", r.WithShuffle.Round(time.Millisecond), r.GainWith)
	fmt.Fprintf(&b, "%-38s %12s %9.1fx\n", "H-ORAM, shuffle in background", r.Background.Round(time.Millisecond), r.GainBackground)
	fmt.Fprintf(&b, "%-38s %12s %9.1fx\n", "analytic cap (2·Z·log2(2N/n))", "-", r.TheoreticalCap)
	return b.String()
}
