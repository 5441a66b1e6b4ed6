package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// An untraced run builds the stack several times, reports the median
// set-up time and measures on the last build: at least setupMin times,
// and up to setupMax while the builds so far took less than the
// window's set-up budget (setupBudget in a benchmark run), so that a
// set-up of a few milliseconds gets enough samples for a steady median.
const (
	setupMin    = 3
	setupMax    = 25
	setupBudget = time.Second
)

// result is one run of one workload: what the benchmark's last output
// line carries, plus the text report's extras.
type result struct {
	workload string
	seed     int64
	metrics  []metric
	tally    tally
	calls    int
	wall     time.Duration
	note     string // traced pass: the reconciliation row
}

func (r *result) correct() bool { return r.tally.failed == 0 && r.tally.attempted > 0 }

// scratch creates a fresh directory for one stack's files under out.
func scratch(out, label string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, label+"-")
}

// verifyAndRestore is the correctness tail of a window: an untimed
// read-back sweep, then checkpoint → close → restore from the same
// directory (what a horamd restart does) and the sweep again. It closes
// s and returns the restored stack, which the caller closes.
func verifyAndRestore(s *stack, conns []*conn, dataDir string, seed int64, budget time.Duration, t *tally) (*stack, snapshotTimes, error) {
	defer s.close() // a no-op after the checked close below
	var snap snapshotTimes
	if err := sweepAll(conns, seed, budget, t); err != nil {
		return nil, snap, err
	}
	before, err := dirBytes(dataDir)
	if err != nil {
		return nil, snap, err
	}
	start := time.Now()
	if err := s.checkpoint(); err != nil {
		return nil, snap, fmt.Errorf("checkpoint: %w", err)
	}
	snap.checkpoint = time.Since(start)
	after, err := dirBytes(dataDir)
	if err != nil {
		return nil, snap, err
	}
	snap.bytes = after - before
	if err := s.close(); err != nil {
		return nil, snap, fmt.Errorf("close before restore: %w", err)
	}
	start = time.Now()
	restored, err := restoreStack(s.sp, dataDir)
	if err != nil {
		return nil, snap, fmt.Errorf("restore: %w", err)
	}
	snap.restore = time.Since(start)
	for i, cn := range conns {
		cn.c = restored.conns[i]
	}
	if err := sweepAll(conns, seed+1, budget, t); err != nil {
		restored.close()
		return nil, snap, err
	}
	return restored, snap, nil
}

// runUntraced measures the end-to-end metrics of one workload on the
// stack as horamd builds it.
func runUntraced(sp spec, seed int64, w window, out string) (*result, error) {
	dataDir, err := scratch(out, sp.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	var s *stack
	var models []*model
	var setups []float64
	var spent float64
	for i := 0; i < setupMin || (i < setupMax && spent < w.setup.Seconds()); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		// engine.New reinitialises the layout, as a horamd started on a
		// used -data-dir without a manifest would.
		if s, models, err = newStack(sp, dataDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.setupS)
		spent += s.setupS
	}
	sort.Float64s(setups)
	size, err := dirBytes(dataDir)
	if err != nil {
		s.close()
		return nil, err
	}
	spaceAmp := float64(size) / float64(sp.blocks*int64(sp.blockSize))

	m, conns, err := drive(s, models, seed, w, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	res := &result{workload: sp.name, seed: seed, calls: len(m.calls), wall: m.wall}
	res.metrics = endToEnd(m, setups[len(setups)/2], spaceAmp)
	restored, _, err := verifyAndRestore(s, conns, dataDir, seed, w.sweep, &res.tally)
	if err != nil {
		return nil, err
	}
	return res, restored.close()
}

// runTraced measures the per-layer metrics of one workload: half the
// window on the stack as horamd builds it (counters, process cost,
// checkpoint and restore), half on the instrumented stack (times), then
// the isolated probes.
func runTraced(sp spec, seed int64, w window, out string) (*result, error) {
	half := w
	half.seconds /= 2

	dir, err := scratch(out, sp.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dataDir := filepath.Join(dir, "store")
	s, models, err := newStack(sp, dataDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	u, conns, err := drive(s, models, seed, half, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	res := &result{workload: sp.name, seed: seed, calls: len(u.calls), wall: u.wall}
	restored, snap, err := verifyAndRestore(s, conns, dataDir, seed, w.sweep, &res.tally)
	if err != nil {
		return nil, err
	}
	if err := restored.close(); err != nil {
		return nil, err
	}

	ts, models, err := newTracedStack(sp, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	t, tconns, err := drive(ts, models, seed, half, func(origin time.Time) {
		ts.spans.arm(origin)
		ts.tracer.Start()
	})
	if err != nil {
		ts.close()
		return nil, err
	}
	lt, spans, err := analyse(ts, t.calls)
	if err != nil {
		ts.close()
		return nil, err
	}
	err = sweepAll(tconns, seed, w.sweep, &res.tally)
	if cerr := ts.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(out, sp.name+".trace.json"), spans); err != nil {
		return nil, err
	}

	rates, err := runProbes(sp, dir, w.probe)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.metrics = perLayer(sp, u, t, lt, rates, snap)
	res.note = fmt.Sprintf("reconciliation over %d traced ops: wire %.1f + server %.1f + okv %.1f + engine %.1f + shards %.1f = %.1f ms vs client.call busy %.1f ms; "+
		"below the seam: controller %.1f + sealer %.1f + device %.1f = shards' summed busy %.1f ms",
		t.ops, ms(lt.wireSelf), ms(lt.serverSelf), ms(lt.okvSelf), ms(lt.engineSelf), ms(lt.shardBusy), ms(lt.sumSelf()), ms(lt.clientBusy),
		ms(lt.shardSum()-lt.leafSum()), ms(lt.sum[spanSeal]+lt.sum[spanOpen]), ms(lt.sum[spanDevRead]+lt.sum[spanDevWrite]), ms(lt.shardSum()))
	return res, nil
}
