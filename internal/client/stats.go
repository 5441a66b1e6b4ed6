package client

import (
	"fmt"
	"strconv"
	"time"
)

// StatsLine is the typed view of a server STATS response — the one
// reader of that line for operator tooling, the daemon's tests and a
// gateway reading its nodes. Parse one with ParseStats(c.Stats()).
type StatsLine struct {
	// Engine aggregates.
	Requests int64
	Hits     int64
	Misses   int64
	Shuffles int64
	Quanta   int64
	MaxCycle time.Duration
	SimTime  time.Duration
	Shards   int

	// Server window counters.
	Conns     int64 // connections accepted
	Active    int64
	Rejected  int64
	Batches   int64
	MeanBatch float64
	Hist      string // window drain-size histogram ("1:12,3-4:2" or "-")
	ShardHist string // aggregated per-shard drain histogram

	// KV is non-nil when the server runs the oblivious key–value
	// layer (horamd -kv).
	KV *KVStats

	// PerShard holds one entry per shard, indexed by shard id.
	PerShard []ShardStats
}

// KVStats is the kv_* key group of a STATS line.
type KVStats struct {
	Count    int64
	Capacity int64
	Gets     int64
	Sets     int64
	Dels     int64
	Misses   int64
}

// ShardStats is one s<i>_* key group of a STATS line.
type ShardStats struct {
	Shard    int
	Depth    int64
	Cycles   int64
	Pad      int64
	Quanta   int64
	MaxCycle time.Duration
	Batches  int64
	Requests int64
	Hist     string
}

// statFields walks required fields of one k=v map, remembering the
// first failure so call sites stay linear.
type statFields struct {
	kv  map[string]string
	err error
}

func (p *statFields) int(key string) int64 {
	if p.err != nil {
		return 0
	}
	v, ok := p.kv[key]
	if !ok {
		p.err = fmt.Errorf("client: stats field %q missing", key)
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		p.err = fmt.Errorf("client: stats field %s=%q: %w", key, v, err)
		return 0
	}
	return n
}

func (p *statFields) float(key string) float64 {
	if p.err != nil {
		return 0
	}
	v, ok := p.kv[key]
	if !ok {
		p.err = fmt.Errorf("client: stats field %q missing", key)
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.err = fmt.Errorf("client: stats field %s=%q: %w", key, v, err)
		return 0
	}
	return f
}

func (p *statFields) duration(key string) time.Duration {
	if p.err != nil {
		return 0
	}
	v, ok := p.kv[key]
	if !ok {
		p.err = fmt.Errorf("client: stats field %q missing", key)
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		p.err = fmt.Errorf("client: stats field %s=%q: %w", key, v, err)
		return 0
	}
	return d
}

func (p *statFields) str(key string) string {
	if p.err != nil {
		return ""
	}
	v, ok := p.kv[key]
	if !ok {
		p.err = fmt.Errorf("client: stats field %q missing", key)
	}
	return v
}

// ParseStats converts a Stats() k=v map into the typed StatsLine,
// including the optional kv_* group and every s<i>_* shard group (the
// shards field says how many to expect). Every field the server
// renders is required except the kv group; a missing or malformed
// field is an error naming it.
func ParseStats(kv map[string]string) (StatsLine, error) {
	p := &statFields{kv: kv}
	st := StatsLine{
		Requests:  p.int("requests"),
		Hits:      p.int("hits"),
		Misses:    p.int("misses"),
		Shuffles:  p.int("shuffles"),
		Quanta:    p.int("quanta"),
		MaxCycle:  p.duration("max_cycle"),
		SimTime:   p.duration("simtime"),
		Shards:    int(p.int("shards")),
		Conns:     p.int("conns"),
		Active:    p.int("active"),
		Rejected:  p.int("rejected"),
		Batches:   p.int("batches"),
		MeanBatch: p.float("mean_batch"),
		Hist:      p.str("hist"),
		ShardHist: p.str("shard_hist"),
	}
	if _, ok := kv["kv_count"]; ok {
		st.KV = &KVStats{
			Count:    p.int("kv_count"),
			Capacity: p.int("kv_capacity"),
			Gets:     p.int("kv_gets"),
			Sets:     p.int("kv_sets"),
			Dels:     p.int("kv_dels"),
			Misses:   p.int("kv_misses"),
		}
	}
	if p.err != nil {
		return StatsLine{}, p.err
	}
	if st.Shards < 0 || st.Shards > 1<<16 {
		return StatsLine{}, fmt.Errorf("client: stats field shards=%d out of range", st.Shards)
	}
	st.PerShard = make([]ShardStats, st.Shards)
	for i := range st.PerShard {
		pre := "s" + strconv.Itoa(i) + "_"
		st.PerShard[i] = ShardStats{
			Shard:    i,
			Depth:    p.int(pre + "depth"),
			Cycles:   p.int(pre + "cycles"),
			Pad:      p.int(pre + "pad"),
			Quanta:   p.int(pre + "quanta"),
			MaxCycle: p.duration(pre + "maxcycle"),
			Batches:  p.int(pre + "batches"),
			Requests: p.int(pre + "reqs"),
			Hist:     p.str(pre + "hist"),
		}
	}
	if p.err != nil {
		return StatsLine{}, p.err
	}
	return st, nil
}
