package main

import (
	"bufio"
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/okv"
)

// counters is one quiescent reading of everything the program already
// counts: engine, shard, okv and server statistics, the obs registry
// as /metrics would serve it, the storage devices' traffic counters,
// the sealer's byte totals and the process's own resource use.
type counters struct {
	eng    engine.Summary
	shards []engine.ShardStats
	scheme []core.Stats
	kv     okv.Stats
	prom   map[string]float64
	stor   device.Stats
	syncs  int64
	sealed int64
	opened int64

	mallocs uint64
	gcPause time.Duration
	cpu     time.Duration
}

// snapshot reads the counters. The caller guarantees no request is in
// flight, so the numbers are mutually consistent. The engine's Stats
// take every shard's lock first, which orders the unlocked device
// reads below after the shard schedulers' last writes.
func (s *stack) snapshot() counters {
	c := counters{
		eng:    s.eng.Stats(),
		shards: s.eng.ShardStats(),
		prom:   s.scrape(),
	}
	for i := 0; i < s.eng.Shards(); i++ {
		c.scheme = append(c.scheme, s.eng.Backend(i).Stats())
	}
	if s.store != nil {
		c.kv = s.store.Stats()
	}
	for _, o := range s.orams {
		c.stor = c.stor.Add(o.Stor().Stats())
		if f, ok := o.Stor().(interface{ Syncs() int64 }); ok {
			c.syncs += f.Syncs()
		}
	}
	c.sealed, c.opened = blockcipher.Throughput()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.gcPause = time.Duration(ms.PauseTotalNs)
	c.cpu = cpuTime()
	return c
}

// scrape renders the registry in Prometheus text form — the bytes
// /metrics serves — and parses it into series name (labels included)
// to value.
func (s *stack) scrape() map[string]float64 {
	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// rusage is the process's resource use so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
