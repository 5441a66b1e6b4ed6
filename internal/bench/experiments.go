package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/horam"
	"repro/internal/shuffle"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Figure51 computes the Figure 5-1 gain grid: one row per N/n ratio,
// one column per c value, Z = 4.
type Figure51 struct {
	Ratios []float64
	Cs     []float64
	Gains  [][]float64 // [ratio][c]
}

// RunFigure51 evaluates the analytic model over the paper's domain.
func RunFigure51() Figure51 {
	ratios := []float64{2, 4, 8, 16, 32, 64}
	cs := []float64{1, 2, 4, 8}
	f := Figure51{Ratios: ratios, Cs: cs, Gains: make([][]float64, len(ratios))}
	for i, r := range ratios {
		f.Gains[i] = make([]float64, len(cs))
		for j, c := range cs {
			f.Gains[i][j] = analytic.Gain(r, c, 4, 1, 1)
		}
	}
	return f
}

// FormatFigure51 renders the gain grid as the figure's data table.
func FormatFigure51(f Figure51) string {
	var b strings.Builder
	b.WriteString("== figure 5-1: theoretical I/O-overhead reduction over Path ORAM (Z=4) ==\n")
	fmt.Fprintf(&b, "%8s", "N/n")
	for _, c := range f.Cs {
		fmt.Fprintf(&b, "  c=%-6.0f", c)
	}
	b.WriteString("\n")
	for i, r := range f.Ratios {
		fmt.Fprintf(&b, "%8.0f", r)
		for j := range f.Cs {
			fmt.Fprintf(&b, "  %-8.2f", f.Gains[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable51 renders the analytic one-period overhead comparison.
func FormatTable51() string {
	h, p := analytic.Table51(analytic.PaperTable51())
	var b strings.Builder
	b.WriteString("== table 5-1: overhead comparison for one period (1 GB data, 128 MB memory, 1 KB block) ==\n")
	fmt.Fprintf(&b, "%-24s %26s %26s\n", "", h.Scheme, p.Scheme)
	fmt.Fprintf(&b, "%-24s %26s %26s\n", "Storage/Memory Size",
		fmt.Sprintf("%s / %s", byteSize(h.StorageBytes), byteSize(h.MemoryBytes)),
		fmt.Sprintf("%s / %s", byteSize(p.StorageBytes), byteSize(p.MemoryBytes)))
	fmt.Fprintf(&b, "%-24s %26.0f %26.0f\n", "Path ORAM level", h.PathLevel, p.PathLevel)
	fmt.Fprintf(&b, "%-24s %26d %26d\n", "Requests Serviced", h.RequestsServiced, p.RequestsServiced)
	fmt.Fprintf(&b, "%-24s %26s %26s\n", "Access Overhead",
		fmt.Sprintf("%.1f KB (read)", h.AccessReadKB),
		fmt.Sprintf("%.0f KB (read) + %.0f KB (write)", p.AccessReadKB, p.AccessWriteKB))
	fmt.Fprintf(&b, "%-24s %26s %26s\n", "Shuffle Overhead",
		fmt.Sprintf("%.3f GB (r) + %.0f GB (w)", h.ShuffleReadGB, h.ShuffleWriteGB), "N/A")
	fmt.Fprintf(&b, "%-24s %26s %26s\n", "Average Overhead",
		fmt.Sprintf("%.1f KB (r) + %.0f KB (w)", h.AvgReadKB, h.AvgWriteKB),
		fmt.Sprintf("%.0f KB (r) + %.0f KB (w)", p.AvgReadKB, p.AvgWriteKB))
	fmt.Fprintf(&b, "%-24s %26s %26s\n", "Ideal (no-shuffle) gain",
		fmt.Sprintf("%.0fx", analytic.IdealGainNoShuffle(float64(128<<10), float64(1<<20), 4)), "1x")
	return b.String()
}

// Table52Row reports one device profile: its configured parameters and
// its *measured* simulated throughputs, mirroring the machine-setup
// table.
type Table52Row struct {
	Profile       device.Profile
	SeqReadMBps   float64
	SeqWriteMBps  float64
	RandReadLat   time.Duration
	RandWriteLat  time.Duration
	SeqOverRandom float64 // per-block sequential vs random read speed
}

// RunTable52 measures the shipped device profiles with 4 KB transfers.
func RunTable52() ([]Table52Row, error) {
	profiles := []device.Profile{device.PaperHDD(), device.RawHDD7200(), device.SSD(), device.DRAM()}
	rows := make([]Table52Row, 0, len(profiles))
	const slotSize = 4096
	const slots = 4096
	for _, p := range profiles {
		clk := simclock.New()
		d, err := device.New(p, slotSize, slots, clk)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, slotSize)

		t0 := clk.Now()
		for i := int64(0); i < slots; i++ {
			d.Read(i, buf) //horam:errok in-range read on a simulated device; the loop measures the clock, not the data
		}
		seqRead := float64(slots*slotSize) / clk.Now().Seconds() / (1 << 20)

		t0 = clk.Now()
		for i := int64(0); i < slots; i++ {
			d.Write(i, buf) //horam:errok in-range write on a simulated device; the loop measures the clock, not the data
		}
		seqWrite := float64(slots*slotSize) / (clk.Now() - t0).Seconds() / (1 << 20)

		t0 = clk.Now()
		const randOps = 512
		for i := int64(0); i < randOps; i++ {
			d.Read((i*2053)%slots, buf) //horam:errok in-range read on a simulated device; the loop measures the clock, not the data
		}
		randRead := (clk.Now() - t0) / randOps

		t0 = clk.Now()
		for i := int64(0); i < randOps; i++ {
			d.Write((i*2053)%slots, buf) //horam:errok in-range write on a simulated device; the loop measures the clock, not the data
		}
		randWrite := (clk.Now() - t0) / randOps

		seqPerBlock := float64(slotSize) / (seqRead * (1 << 20))
		rows = append(rows, Table52Row{
			Profile:       p,
			SeqReadMBps:   seqRead,
			SeqWriteMBps:  seqWrite,
			RandReadLat:   randRead,
			RandWriteLat:  randWrite,
			SeqOverRandom: randRead.Seconds() / seqPerBlock,
		})
	}
	return rows, nil
}

// FormatTable52 renders the device calibration table.
func FormatTable52(rows []Table52Row) string {
	var b strings.Builder
	b.WriteString("== table 5-2: simulated machine setup (measured on the device models, 4 KB blocks) ==\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %14s %10s\n",
		"device", "seq read MB/s", "seq write MB/s", "rand read", "rand write", "seq/rand")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.1f %14.1f %14s %14s %9.1fx\n",
			r.Profile.Name, r.SeqReadMBps, r.SeqWriteMBps, r.RandReadLat, r.RandWriteLat, r.SeqOverRandom)
	}
	return b.String()
}

// SeqVsRand measures the §5.2 observation: a whole-store sequential
// sweep vs the same slot count in random order on the HDD model.
type SeqVsRand struct {
	Slots      int64
	Sequential time.Duration
	Random     time.Duration
	Ratio      float64
}

// RunSeqVsRand sweeps 16K 1 KB slots.
func RunSeqVsRand() (SeqVsRand, error) {
	const slots = 16384
	const slotSize = 1024
	mk := func() (*device.Sim, *simclock.Clock, error) {
		clk := simclock.New()
		d, err := device.New(device.PaperHDD(), slotSize, slots, clk)
		return d, clk, err
	}
	buf := make([]byte, slotSize)

	dSeq, cSeq, err := mk()
	if err != nil {
		return SeqVsRand{}, err
	}
	for i := int64(0); i < slots; i++ {
		dSeq.Read(i, buf) //horam:errok in-range read on a simulated device; the loop measures the clock, not the data
	}

	dRand, cRand, err := mk()
	if err != nil {
		return SeqVsRand{}, err
	}
	for i := int64(0); i < slots; i++ {
		dRand.Read((i*4099)%slots, buf) //horam:errok in-range read on a simulated device; the loop measures the clock, not the data
	}
	out := SeqVsRand{
		Slots:      slots,
		Sequential: cSeq.Now(),
		Random:     cRand.Now(),
	}
	out.Ratio = float64(out.Random) / float64(out.Sequential)
	return out, nil
}

// PartialShuffleRow is one r setting of the §5.3.1 ablation.
type PartialShuffleRow struct {
	Ratio        float64
	TotalTime    time.Duration
	ShuffleTime  time.Duration
	AccessTime   time.Duration
	Shuffles     int64
	PartShuffled int64
	StorageBytes int64
}

// partialShuffleParams is the §5.3.1 ablation's instance.
func partialShuffleParams() Params {
	return Params{
		DataBytes:   8 << 20,
		MemoryBytes: 1 << 20,
		BlockSize:   1 << 10,
		Requests:    8000,
		HotFrac:     0.8,
		HotSize:     0.05,
		Z:           4,
		Seed:        "partial",
	}
}

// RunPartialShuffle sweeps the shuffle ratio on a mid-size instance.
func RunPartialShuffle(ratios []float64) ([]PartialShuffleRow, error) {
	return runPartialShuffle(partialShuffleParams(), ratios)
}

func runPartialShuffle(p Params, ratios []float64) ([]PartialShuffleRow, error) {
	addrs, err := addresses(p)
	if err != nil {
		return nil, err
	}
	rows := make([]PartialShuffleRow, 0, len(ratios))
	for _, r := range ratios {
		o, err := newHORAM(p, blockcipher.NewRNGFromString(p.Seed+fmt.Sprint(r)), horam.Config{ShuffleRatio: r})
		if err != nil {
			return nil, err
		}
		if err := serveReads(o, addrs); err != nil {
			return nil, err
		}
		st := o.Stats()
		rows = append(rows, PartialShuffleRow{
			Ratio:        r,
			TotalTime:    o.Clock().Now(),
			ShuffleTime:  o.ShuffleTime(),
			AccessTime:   o.AccessTime(),
			Shuffles:     st.Shuffles,
			PartShuffled: st.PartShuffled,
			StorageBytes: o.Partitions() * o.PartitionSlots() * int64(p.BlockSize),
		})
	}
	return rows, nil
}

// FormatPartialShuffle renders the ablation rows.
func FormatPartialShuffle(rows []PartialShuffleRow) string {
	var b strings.Builder
	b.WriteString("== §5.3.1 partial shuffle ablation (8 MB data, 1 MB memory, 8k requests) ==\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %9s %10s %12s\n",
		"ratio r", "total", "access", "shuffle", "shuffles", "parts", "storage")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %12s %12s %12s %9d %10d %12s\n",
			r.Ratio, r.TotalTime.Round(time.Millisecond), r.AccessTime.Round(time.Millisecond),
			r.ShuffleTime.Round(time.Millisecond), r.Shuffles, r.PartShuffled, byteSize(r.StorageBytes))
	}
	return b.String()
}

// MultiUserRow is one point of the §5.3.2 scaling experiment.
type MultiUserRow struct {
	Users      int
	Requests   int64
	TotalTime  time.Duration
	PerRequest time.Duration
	Throughput float64 // requests per simulated second
}

// multiUserParams is the §5.3.2 instance; Requests counts per user,
// and the hotspot shape applies to each user's region.
func multiUserParams() Params {
	return Params{
		DataBytes:   16 << 20,
		MemoryBytes: 2 << 20,
		BlockSize:   1 << 10,
		Requests:    2000,
		HotFrac:     0.8,
		HotSize:     0.05,
		Z:           4,
	}
}

// RunMultiUser drives one shared H-ORAM with interleaved request
// streams from u users, each with its own hot region.
func RunMultiUser(userCounts []int) ([]MultiUserRow, error) {
	return runMultiUser(multiUserParams(), userCounts)
}

func runMultiUser(p Params, userCounts []int) ([]MultiUserRow, error) {
	rows := make([]MultiUserRow, 0, len(userCounts))
	for _, users := range userCounts {
		rng := blockcipher.NewRNGFromString(fmt.Sprintf("multiuser-%d", users))
		o, err := newHORAM(p, rng, horam.Config{})
		if err != nil {
			return nil, err
		}
		// Each user hammers a private region with an 80/20 law; the
		// streams interleave round-robin into the shared ROB.
		gens := make([]workload.Generator, users)
		span := p.blocks() / int64(users)
		for u := range gens {
			gens[u], err = workload.NewHotspot(span, p.HotFrac, p.HotSize, rng.Fork(fmt.Sprintf("u%d", u)))
			if err != nil {
				return nil, err
			}
		}
		addrs := make([]int64, 0, p.Requests*users)
		for i := 0; i < p.Requests; i++ {
			for u, g := range gens {
				addrs = append(addrs, int64(u)*span+g.Next())
			}
		}
		if err := serveReads(o, addrs); err != nil {
			return nil, err
		}
		total := o.Clock().Now()
		n := int64(len(addrs))
		rows = append(rows, MultiUserRow{
			Users:      users,
			Requests:   n,
			TotalTime:  total,
			PerRequest: total / time.Duration(n),
			Throughput: float64(n) / total.Seconds(),
		})
	}
	return rows, nil
}

// FormatMultiUser renders the multi-user scaling rows.
func FormatMultiUser(rows []MultiUserRow) string {
	var b strings.Builder
	b.WriteString("== §5.3.2 multi-user sharing (16 MB data, 2 MB memory, 2k requests/user) ==\n")
	fmt.Fprintf(&b, "%6s %10s %12s %14s %16s\n", "users", "requests", "total", "per request", "req/sim-second")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10d %12s %14s %16.0f\n",
			r.Users, r.Requests, r.TotalTime.Round(time.Millisecond), r.PerRequest, r.Throughput)
	}
	return b.String()
}

// ZSweepRow is one bucket-size setting of the design ablation.
type ZSweepRow struct {
	Z         int
	TotalTime time.Duration
}

// zSweepParams is the bucket-size ablation's instance; Z is swept.
func zSweepParams() Params {
	return Params{
		DataBytes:   8 << 20,
		MemoryBytes: 1 << 20,
		BlockSize:   1 << 10,
		Requests:    8000,
		HotFrac:     0.8,
		HotSize:     0.05,
	}
}

// RunZSweep compares memory-tree bucket sizes on a fixed workload.
func RunZSweep(zs []int) ([]ZSweepRow, error) {
	return runZSweep(zSweepParams(), zs)
}

func runZSweep(p Params, zs []int) ([]ZSweepRow, error) {
	rows := make([]ZSweepRow, 0, len(zs))
	for _, z := range zs {
		p.Z = z
		rng := blockcipher.NewRNGFromString(fmt.Sprintf("zsweep-%d", z))
		o, err := newHORAM(p, rng, horam.Config{})
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewHotspot(p.blocks(), p.HotFrac, p.HotSize, rng.Fork("wl"))
		if err != nil {
			return nil, err
		}
		if err := serveReads(o, workload.Take(gen, p.Requests)); err != nil {
			return nil, err
		}
		rows = append(rows, ZSweepRow{Z: z, TotalTime: o.Clock().Now()})
	}
	return rows, nil
}

// FormatZSweep renders the Z ablation.
func FormatZSweep(rows []ZSweepRow) string {
	var b strings.Builder
	b.WriteString("== ablation: memory-tree bucket size Z (8 MB data, 1 MB memory, 8k requests) ==\n")
	fmt.Fprintf(&b, "%4s %12s\n", "Z", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %12s\n", r.Z, r.TotalTime.Round(time.Millisecond))
	}
	return b.String()
}

// StageRow compares the staged c schedule with fixed-c schedules.
type StageRow struct {
	Label     string
	TotalTime time.Duration
	Cycles    int64
	DummyMem  int64
}

// stageAblationParams is the schedule ablation's instance.
func stageAblationParams() Params {
	return Params{
		DataBytes:   8 << 20,
		MemoryBytes: 1 << 20,
		BlockSize:   1 << 10,
		Requests:    8000,
		HotFrac:     0.8,
		HotSize:     0.05,
		Z:           4,
		Seed:        "stages",
	}
}

// RunStageAblation contrasts the paper's staged schedule against fixed
// c values on the same trace.
func RunStageAblation() ([]StageRow, error) {
	return runStageAblation(stageAblationParams())
}

func runStageAblation(p Params) ([]StageRow, error) {
	schedules := []struct {
		label  string
		stages []horam.Stage
	}{
		{"paper {1,3,5}", horam.PaperStages()},
		{"fixed c=1", []horam.Stage{{C: 1, Frac: 1}}},
		{"fixed c=4", []horam.Stage{{C: 4, Frac: 1}}},
		{"fixed c=8", []horam.Stage{{C: 8, Frac: 1}}},
	}
	addrs, err := addresses(p)
	if err != nil {
		return nil, err
	}
	rows := make([]StageRow, 0, len(schedules))
	for _, s := range schedules {
		o, err := newHORAM(p, blockcipher.NewRNGFromString(p.Seed+s.label), horam.Config{Stages: s.stages})
		if err != nil {
			return nil, err
		}
		if err := serveReads(o, addrs); err != nil {
			return nil, err
		}
		st := o.Stats()
		rows = append(rows, StageRow{
			Label:     s.label,
			TotalTime: o.Clock().Now(),
			Cycles:    st.Cycles,
			DummyMem:  st.DummyMemory,
		})
	}
	return rows, nil
}

// FormatStageAblation renders the schedule comparison.
func FormatStageAblation(rows []StageRow) string {
	var b strings.Builder
	b.WriteString("== ablation: scheduler c schedule (8 MB data, 1 MB memory, 8k requests) ==\n")
	fmt.Fprintf(&b, "%-14s %12s %10s %12s\n", "schedule", "total", "cycles", "mem dummies")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %10d %12d\n",
			r.Label, r.TotalTime.Round(time.Millisecond), r.Cycles, r.DummyMem)
	}
	return b.String()
}

// PrefetchRow is one prefetch-depth setting of the scheduler ablation.
type PrefetchRow struct {
	Depth     int
	TotalTime time.Duration
	Cycles    int64
	DummyMem  int64 // padding path accesses (scheduler found too few hits)
	DummyIO   int64
}

// prefetchParams is the prefetch-depth ablation's instance; the
// scheduler's scan window is swept.
func prefetchParams() Params {
	return Params{
		DataBytes:   8 << 20,
		MemoryBytes: 1 << 20,
		BlockSize:   1 << 10,
		Requests:    8000,
		HotFrac:     0.8,
		HotSize:     0.01,
		Z:           4,
		Seed:        "prefetch",
	}
}

// RunPrefetchDepth sweeps the ROB scan window d at fixed stages: a
// deeper window finds matching hits for full groups, cutting dummy
// padding (§4.2's prefetching optimisation).
func RunPrefetchDepth(depths []int) ([]PrefetchRow, error) {
	return runPrefetchDepth(prefetchParams(), depths)
}

func runPrefetchDepth(p Params, depths []int) ([]PrefetchRow, error) {
	addrs, err := addresses(p)
	if err != nil {
		return nil, err
	}
	rows := make([]PrefetchRow, 0, len(depths))
	for _, d := range depths {
		rng := blockcipher.NewRNGFromString(fmt.Sprintf("%s-%d", p.Seed, d))
		o, err := newHORAM(p, rng, horam.Config{PrefetchDepth: d})
		if err != nil {
			return nil, err
		}
		if err := serveReads(o, addrs); err != nil {
			return nil, err
		}
		st := o.Stats()
		rows = append(rows, PrefetchRow{
			Depth:     d,
			TotalTime: o.Clock().Now(),
			Cycles:    st.Cycles,
			DummyMem:  st.DummyMemory,
			DummyIO:   st.DummyIO,
		})
	}
	return rows, nil
}

// FormatPrefetchDepth renders the prefetch ablation.
func FormatPrefetchDepth(rows []PrefetchRow) string {
	var b strings.Builder
	b.WriteString("== ablation: prefetch window depth d (8 MB data, 1 MB memory, 8k requests) ==\n")
	fmt.Fprintf(&b, "%6s %12s %10s %12s %10s\n", "d", "total", "cycles", "mem dummies", "io dummies")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12s %10d %12d %10d\n",
			r.Depth, r.TotalTime.Round(time.Millisecond), r.Cycles, r.DummyMem, r.DummyIO)
	}
	return b.String()
}

// ShuffleAlgRow compares the in-memory shuffle algorithm choices on
// equal inputs: wall-clock cost and the oblivious-primitive counts.
type ShuffleAlgRow struct {
	Name      string
	WallTime  time.Duration
	Primitive string // what the count below counts
	Count     int64
}

// RunShuffleAlgs shuffles the same 4096 x 1 KB buffer with every
// algorithm (the DESIGN ablation: inside trusted memory any uniform
// shuffle is admissible; the oblivious ones cost more).
func RunShuffleAlgs() ([]ShuffleAlgRow, error) {
	const n = 4096
	mkItems := func() [][]byte {
		items := make([][]byte, n)
		for i := range items {
			items[i] = make([]byte, 1024)
			items[i][0] = byte(i)
		}
		return items
	}
	var rows []ShuffleAlgRow

	run := func(name string, fn func(items [][]byte) (string, int64, error)) error {
		items := mkItems()
		start := time.Now()
		prim, count, err := fn(items)
		if err != nil {
			return err
		}
		rows = append(rows, ShuffleAlgRow{Name: name, WallTime: time.Since(start), Primitive: prim, Count: count})
		return nil
	}

	if err := run("fisher-yates", func(items [][]byte) (string, int64, error) {
		rng := blockcipher.NewRNGFromString("alg-fy")
		err := shuffle.Cache{}.Shuffle(items, rng)
		return "swaps", int64(len(items) - 1), err
	}); err != nil {
		return nil, err
	}
	if err := run("bitonic", func(items [][]byte) (string, int64, error) {
		rng := blockcipher.NewRNGFromString("alg-bit")
		alg := &shuffle.Bitonic{}
		err := alg.Shuffle(items, rng)
		return "compare-exchanges", alg.CompareExchanges, err
	}); err != nil {
		return nil, err
	}
	if err := run("melbourne", func(items [][]byte) (string, int64, error) {
		rng := blockcipher.NewRNGFromString("alg-melb")
		alg := &shuffle.Melbourne{}
		err := alg.Shuffle(items, rng)
		return "slot writes", alg.RealWrites + alg.DummyWrites, err
	}); err != nil {
		return nil, err
	}
	if err := run("benes", func(items [][]byte) (string, int64, error) {
		rng := blockcipher.NewRNGFromString("alg-benes")
		alg := &shuffle.BenesShuffle{}
		err := alg.Shuffle(items, rng)
		return "switches", alg.Switches, err
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatShuffleAlgs renders the shuffle-algorithm comparison.
func FormatShuffleAlgs(rows []ShuffleAlgRow) string {
	var b strings.Builder
	b.WriteString("== ablation: in-memory shuffle algorithm (4096 x 1 KB blocks) ==\n")
	fmt.Fprintf(&b, "%-14s %12s %22s %12s\n", "algorithm", "wall time", "primitive", "count")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %22s %12d\n", r.Name, r.WallTime.Round(time.Microsecond), r.Primitive, r.Count)
	}
	b.WriteString("(fisher-yates is admissible inside trusted memory; the oblivious\n")
	b.WriteString(" algorithms show what an untrusted-memory shuffle would cost)\n")
	return b.String()
}
