// Timing-variance experiment: drives secret-state-differing workload
// pairs through the trusted-memory structures in constant-time mode,
// and the canary pair in default mode too, and reports Welch's t per
// pair and mode (internal/timing). The CI gate built on
// this (scripts/timing_gate.sh) demands two things at once:
//
//  1. CTPass — with ConstantTime on, EVERY pair stays statistically
//     indistinguishable (|t| under the threshold);
//  2. DetectPass — in default mode, the stash canary pair exceeds the
//     same threshold, proving the harness has the power to see the
//     channel it claims to gate. A gate that "passes" because the
//     measurement is too weak to see anything is not a gate.
//
// The threshold is generous (Welch |t| of 12 is overwhelming evidence
// under clean conditions) because shared CI runners are noisy; the
// escape hatch for pathological runners is TIMING_GATE_SKIP=1.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/pathoram"
	"repro/internal/posmap"
	"repro/internal/simclock"
	"repro/internal/stash"
	"repro/internal/timing"
)

// DefaultTimingThreshold is the |t| gate bound. Calibrated so the
// default-mode stash canary clears it by an order of magnitude while
// constant-time pairs sit far below it even on busy machines.
const DefaultTimingThreshold = 12

// TimingRow is one pair measurement in one mode.
type TimingRow struct {
	Pair   string `json:"pair"`
	Mode   string `json:"mode"`   // "default" or "constant-time"
	Canary bool   `json:"canary"` // default-mode detectability proof
	timing.PairResult
}

// TimingReport is the full experiment output.
type TimingReport struct {
	Threshold  float64     `json:"threshold"`
	Samples    int         `json:"samples"`
	Rows       []TimingRow `json:"rows"`
	CTPass     bool        `json:"ct_pass"`
	DetectPass bool        `json:"detect_pass"`
}

// timingPair is one A/B workload pair in one mode: constant-time, or
// default for the canary.
type timingPair struct {
	name  string
	ct    bool
	build func() (pairOps, error)
}

// pairOps is one built pair: a and b are the timed sides; resetA and
// resetB, when set, run untimed before every call of a and of b.
type pairOps struct {
	a, b, resetA, resetB func()
}

// stashPair: Take+Put per iteration on a 3/4-full stash. Side A takes
// a RESIDENT address and re-inserts it (map mode: delete + insert);
// side B takes an ABSENT address and overwrites another resident one
// (map mode: failed lookup + replace). Same public op sequence, the
// hit/miss split is the secret. The inner loop amplifies the per-op
// difference above timer resolution.
func stashPair(ct bool) (pairOps, error) {
	const (
		capacity  = 128
		blockSize = 64
		resident  = 96
		inner     = 16
	)
	var s stash.Store
	if ct {
		s = stash.NewConstantTime(capacity, blockSize)
	} else {
		s = stash.New(capacity)
	}
	buf := make([]byte, blockSize)
	// Even addresses resident, odd absent.
	for i := 0; i < resident; i++ {
		if err := s.Put(int64(2*i), buf); err != nil {
			return pairOps{}, err
		}
	}
	const (
		hot     = int64(100) // resident (even)
		absent  = int64(101) // odd, never inserted
		replace = int64(200) // resident (even)
	)
	a := func() {
		for i := 0; i < inner; i++ {
			if _, ok := s.Take(hot); !ok {
				panic("bench: stash canary lost its hot block")
			}
			if err := s.Put(hot, buf); err != nil {
				panic(err)
			}
		}
	}
	b := func() {
		for i := 0; i < inner; i++ {
			s.Take(absent)
			if err := s.Put(replace, buf); err != nil {
				panic(err)
			}
		}
	}
	return pairOps{a: a, b: b}, nil
}

// posmapPair: constant-time position-map lookups of one hot address vs
// a sweep of addresses; both sides are full masked scans.
func posmapPair() (pairOps, error) {
	const (
		blocks = 1024
		nLeaf  = 512
		inner  = 64
	)
	rng := blockcipher.NewRNGFromString("bench-timing-posmap")
	m, err := posmap.NewPositionMap(blocks, nLeaf)
	if err != nil {
		return pairOps{}, err
	}
	for addr := int64(0); addr < blocks; addr++ {
		if err := m.Set(addr, rng.Int63n(nLeaf)); err != nil {
			return pairOps{}, err
		}
	}
	m.SetConstantTime(true)
	// Both sides run the identical harness arithmetic (advance an
	// index, fold the result into a sink); only the looked-up address
	// differs, so any measured gap comes from the structure itself.
	var sinkA, sinkB int64
	idxA, idxB := int64(0), int64(0)
	a := func() {
		for i := 0; i < inner; i++ {
			idxA = (idxA + 131) % blocks
			v, _ := m.Get(7)
			sinkA += v
		}
	}
	b := func() {
		for i := 0; i < inner; i++ {
			idxB = (idxB + 131) % blocks
			v, _ := m.Get(idxB)
			sinkB += v
		}
	}
	return pairOps{a: a, b: b}, nil
}

// permlistPair: a constant-time hit's two leaf passes over the
// permutation list, as H-ORAM's scheduler runs them (Leaf, then
// SetMemory with the block's new leaf), one hot address vs a sweep.
// The list mixes the three tiers; both sides look up memory-tier
// addresses, so every call returns a real leaf and the mix stays put.
func permlistPair() (pairOps, error) {
	const (
		blocks = 1024
		nLeaf  = 512
		inner  = 32
	)
	rng := blockcipher.NewRNGFromString("bench-timing-permlist")
	l, err := posmap.NewPermutationList(blocks)
	if err != nil {
		return pairOps{}, err
	}
	// Address a is memory-tier when a%3 == 0, pooled when a%3 == 1
	// and stays in storage otherwise.
	for addr := int64(0); addr < blocks; addr++ {
		switch addr % 3 {
		case 0:
			err = l.SetMemory(addr, rng.Int63n(nLeaf))
		case 1:
			err = l.SetPool(addr, int(addr/3))
		}
		if err != nil {
			return pairOps{}, err
		}
	}
	l.SetConstantTime(true)
	const memBlocks = (blocks + 2) / 3
	// Identical harness arithmetic on both sides; only the address
	// differs.
	hit := func(addr, k int64) {
		leaf, err := l.Leaf(addr)
		if err == nil {
			err = l.SetMemory(addr, (leaf+k)%nLeaf)
		}
		if err != nil {
			panic(err)
		}
	}
	idxA, idxB := int64(0), int64(0)
	a := func() {
		for i := int64(0); i < inner; i++ {
			idxA = (idxA + 131) % memBlocks
			hit(3*7, i)
		}
	}
	b := func() {
		for i := int64(0); i < inner; i++ {
			idxB = (idxB + 131) % memBlocks
			hit(3*idxB, i)
		}
	}
	return pairOps{a: a, b: b}, nil
}

// pathoramPair: end-to-end Path ORAM reads — one hot address vs a
// uniform sweep. Unlike the full H-ORAM scheduler (where a hit/miss
// mix changes the CYCLE COUNT, which the bus already reveals), every
// pathoram access presents the identical public shape: one path read,
// one path write. What differs between the sides is pure secret
// state — which addresses sit in the stash and where on the tree the
// target lives — exactly the residue ConstantTime must erase.
func pathoramPair() (pairOps, error) {
	const (
		blocks    = 64
		blockSize = 32
		inner     = 4
	)
	rng := blockcipher.NewRNGFromString("bench-timing-pathoram")
	cfg := pathoram.Config{
		Blocks:       blocks,
		BlockSize:    blockSize,
		Z:            4,
		Sealer:       blockcipher.NullSealer{},
		RNG:          rng.Fork("oram"),
		ConstantTime: true,
	}
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), 16*blocks, simclock.New())
	if err != nil {
		return pairOps{}, err
	}
	o, err := pathoram.New(cfg, dev)
	if err != nil {
		return pairOps{}, err
	}
	payload := make([]byte, blockSize)
	for i := int64(0); i < blocks; i++ {
		if err := o.Write(i, payload); err != nil {
			return pairOps{}, err
		}
	}
	// Symmetric harness arithmetic; only the address differs.
	idxA, idxB := int64(0), int64(0)
	a := func() {
		for i := 0; i < inner; i++ {
			idxA = (idxA + 17) % blocks
			if _, err := o.Read(13); err != nil {
				panic(err)
			}
		}
	}
	b := func() {
		for i := 0; i < inner; i++ {
			idxB = (idxB + 17) % blocks
			if _, err := o.Read(idxB); err != nil {
				panic(err)
			}
		}
	}
	return pairOps{a: a, b: b}, nil
}

// compactPair: one path's eviction removal on stashes sized like a
// block_ct shard's (capacity 62, 48 resident, 20 marked — one path's
// slots). Side A marks the last 20 resident entries, so no survivor
// has to move; side B marks the first 20, so every survivor moves 20
// entries down. Only the removals are timed, one on each of 8 stashes
// per sample: each side's untimed reset puts back what the other side
// removed. The removal is the constant-time stash's RemoveMasked, whose
// swap passes must cost the same whatever distances the survivors
// travel.
func compactPair() (pairOps, error) {
	const (
		capacity  = 62
		blockSize = 64
		resident  = 48
		marked    = 20
		inner     = 8
	)
	back, front := make([]int64, marked), make([]int64, marked)
	for i := range back {
		back[i] = int64(resident - marked + i)
		front[i] = int64(i)
	}
	buf := make([]byte, blockSize)
	puts := make([]func(addr int64) error, inner)
	removes := make([]func(addrs []int64), inner)
	for k := range puts {
		s := stash.NewConstantTime(capacity, blockSize)
		mask := make([]int, capacity)
		puts[k] = func(addr int64) error { return s.PutMasked(1, addr, addr, buf) }
		removes[k] = func(addrs []int64) {
			// Address a is the a-th resident block, so it sits at entry a.
			clear(mask)
			for _, a := range addrs {
				mask[a] = 1
			}
			s.RemoveMasked(mask)
		}
		for a := int64(0); a < resident; a++ {
			if err := puts[k](a); err != nil {
				return pairOps{}, err
			}
		}
	}
	remove := func(addrs []int64) func() {
		return func() {
			for _, r := range removes {
				r(addrs)
			}
		}
	}
	putBack := func(addrs []int64) func() {
		return func() {
			for _, put := range puts {
				for _, a := range addrs {
					if err := put(a); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return pairOps{a: remove(back), b: remove(front), resetA: putBack(front), resetB: putBack(back)}, nil
}

// timingPairs is the experiment's catalogue: the rows the two checks
// read. The stash pair runs in default mode as the canary and in
// constant-time mode; every other pair runs in constant-time mode only,
// since a default-mode row that is not the canary gates nothing and
// its verdict changes from run to run of unchanged code.
var timingPairs = []timingPair{
	{"stash-take-put", false, func() (pairOps, error) { return stashPair(false) }},
	{"stash-take-put", true, func() (pairOps, error) { return stashPair(true) }},
	{"posmap-lookup", true, posmapPair},
	{"permlist-leaf", true, permlistPair},
	{"pathoram-read", true, pathoramPair},
	{"stash-evict-compact", true, compactPair},
}

// RunTiming measures every row of timingPairs.
func RunTiming(opts timing.Options, threshold float64) (*TimingReport, error) {
	if threshold <= 0 {
		threshold = DefaultTimingThreshold
	}
	rep := &TimingReport{Threshold: threshold, CTPass: true}
	for _, p := range timingPairs {
		mode := "default"
		if p.ct {
			mode = "constant-time"
		}
		ops, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("bench: timing pair %s (%s): %w", p.name, mode, err)
		}
		res := timing.MeasurePairReset(opts, ops.a, ops.b, ops.resetA, ops.resetB)
		rep.Samples = res.A.N
		row := TimingRow{Pair: p.name, Mode: mode, Canary: !p.ct, PairResult: res}
		rep.Rows = append(rep.Rows, row)
		abs := math.Abs(row.T)
		if p.ct && abs >= threshold {
			rep.CTPass = false
		}
		if row.Canary && abs >= threshold {
			rep.DetectPass = true
		}
	}
	return rep, nil
}

// FormatTiming renders the report as the experiment's console table.
func FormatTiming(rep *TimingReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== timing variance: secret-dependent wall-clock distinguishability (|t| threshold %.0f) ==\n", rep.Threshold)
	fmt.Fprintf(&sb, "%-20s %-14s %12s %12s %10s  %s\n", "pair", "mode", "mean A (ns)", "mean B (ns)", "Welch t", "verdict")
	for _, r := range rep.Rows {
		verdict := "indistinguishable"
		if math.Abs(r.T) >= rep.Threshold {
			verdict = "DISTINGUISHABLE"
		}
		if r.Canary {
			verdict += " (canary)"
		}
		fmt.Fprintf(&sb, "%-20s %-14s %12.0f %12.0f %10.1f  %s\n", r.Pair, r.Mode, r.A.Mean, r.B.Mean, r.T, verdict)
	}
	fmt.Fprintf(&sb, "constant-time gate: %s (every CT pair under threshold)\n", passFail(rep.CTPass))
	fmt.Fprintf(&sb, "detection power:    %s (default-mode canary over threshold)\n", passFail(rep.DetectPass))
	return sb.String()
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// WriteTimingJSON persists the report (BENCH_timing.json baseline and
// the CI gate's input).
func WriteTimingJSON(path string, rep *TimingReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
