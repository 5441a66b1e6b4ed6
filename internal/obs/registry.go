// Package obs is the observability layer: a zero-alloc metrics
// registry with a mandatory leak audit, and a request-path tracer
// (tracer.go) that dumps chrome://tracing JSON.
//
// # The public-observable contract
//
// In an H-ORAM deployment the monitoring pipeline is part of the
// threat model: a Prometheus scrape travels the same untrusted
// networks the device bus does, so a metric derived from
// secret-dependent state is a side channel exactly like an unpadded
// bus trace. Every metric in a Registry must therefore be registered
// with a Decl — a publicness class plus a written justification of
// why exporting the value reveals nothing the adversary model does
// not already grant. Registration without a justification panics at
// startup; there is no way to export an undeclared metric.
//
// Three classes exist:
//
//   - Public: the value is a public observable — a deterministic
//     function of information the adversary already has (client op
//     counts, leveled cycle counts, wire-visible verbs, transport
//     faults). Public metrics form the audited snapshot
//     (AuditText): the differential test in internal/server asserts
//     the snapshot is byte-identical across adversarial workloads of
//     equal op count, so a secret-dependent counter slipped in under
//     a Public declaration fails CI, not review.
//   - Timing: the value carries wall-clock (or process-global)
//     measurement — latency histograms, throughput totals. Excluded
//     from the audited snapshot, because wall-clock timing is
//     explicitly outside the volume-leveling guarantee (see README
//     "Threat model"): the timing gate from PR 7, not snapshot
//     equality, is the discipline for those.
//   - Trusted: the value is secret-dependent (per-shard request
//     routing, the hit/miss mix, the real-vs-pad cycle split) and is
//     shown only on the trusted operator surface, the STATS verb
//     (AppendStats). WritePrometheus, ServeHTTP and AuditText skip
//     it, so /metrics and the audit never carry it.
//
// Counters, gauges and histogram observations are single atomic
// operations — no allocation, no locking — so instrumenting the
// zero-alloc hot paths from PR 6 does not perturb them. All
// instrument methods are nil-receiver safe: a nil *Counter (no
// registry wired) makes the instrumented code a no-op.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class is the publicness class of a metric.
type Class int

// Metric publicness classes. See the package doc for the contract.
const (
	// ClassPublic marks a public observable; included in the audited
	// snapshot that must be workload-independent.
	ClassPublic Class = iota
	// ClassTiming marks a wall-clock (or process-global) measurement;
	// exported but excluded from the audited snapshot.
	ClassTiming
	// ClassTrusted marks a secret-dependent value: rendered only by
	// AppendStats, never exported or audited.
	ClassTrusted
)

// Decl is the mandatory publicness declaration of a metric: its class
// and the written justification. The zero Decl is invalid —
// registration refuses it.
type Decl struct {
	Class  Class
	Reason string
}

// Public declares a metric a public observable (audited). The reason
// must say WHY the adversary model already grants the value.
func Public(reason string) Decl { return Decl{Class: ClassPublic, Reason: reason} }

// Timing declares a wall-clock measurement (exported, unaudited). The
// reason must say what the value measures and why it lives outside
// the snapshot-equality guarantee.
func Timing(reason string) Decl { return Decl{Class: ClassTiming, Reason: reason} }

// Trusted declares a secret-dependent value that only the trusted
// STATS surface shows. The reason must say what the value reveals and
// who may see it.
func Trusted(reason string) Decl { return Decl{Class: ClassTrusted, Reason: reason} }

// Label is one metric label pair, e.g. {“shard”, “0”}.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing atomic counter. The zero
// value is usable; a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: counts per bucket, a total
// count and a running sum, all atomics. Buckets are defined by their
// inclusive upper bounds (Prometheus `le` semantics) with an implicit
// +Inf bucket at the end. Observe is zero-alloc; a nil *Histogram is
// a no-op.
type Histogram struct {
	bounds []float64
	les    []string       // bounds rendered as `le` label values, "+Inf" last
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// PowerOfTwoBounds returns upper bounds start, 2·start, 4·start, …
// (n bounds) — the log-bucketing every latency histogram here uses.
func PowerOfTwoBounds(start float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// BatchSizeBounds are the upper bounds of every request-count
// histogram here (buckets 1, 2, 3-4, 5-8, …, 65+).
func BatchSizeBounds() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64} }

// DurationBounds are the default latency bounds: 1µs to ~4s in
// powers of two (23 buckets + Inf).
func DurationBounds() []float64 { return PowerOfTwoBounds(1e-6, 23) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.BucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// BucketOf returns the index of the bucket v falls in: the first
// upper bound not below v, or the +Inf bucket.
func (h *Histogram) BucketOf(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Bucket returns the count of bucket i (the last index is +Inf).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil {
		return 0
	}
	return h.counts[i].Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketString renders the non-empty buckets of an integer-valued
// histogram for logs, each labelled by the integers it holds:
// "1:12,2:3,5-8:1" over BatchSizeBounds, "65+" for the +Inf bucket,
// or "-" when nothing was observed (also on nil).
func (h *Histogram) BucketString() string {
	if h == nil {
		return "-"
	}
	var b []byte
	for i, le := range h.les {
		n := h.Bucket(i)
		if n == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ',')
		}
		switch {
		case i > 0 && i == len(h.bounds):
			b = appendFloat(b, h.bounds[i-1]+1)
			b = append(b, '+')
		case i > 0 && h.bounds[i-1]+1 < h.bounds[i]:
			b = appendFloat(b, h.bounds[i-1]+1)
			b = append(b, '-')
			b = append(b, le...)
		default:
			b = append(b, le...)
		}
		b = append(b, ':')
		b = strconv.AppendInt(b, n, 10)
	}
	if len(b) == 0 {
		return "-"
	}
	return string(b)
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series: an instrument plus its identity
// and declaration.
type metric struct {
	name   string
	labels []Label // sorted by key
	key    string  // id(), set at registration
	help   string
	decl   Decl
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
}

// id is the unique series identity: name plus rendered labels.
func (m *metric) id() string {
	if len(m.labels) == 0 {
		return m.name
	}
	var b strings.Builder
	b.WriteString(m.name)
	b.WriteByte('{')
	for i, l := range m.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds declared metrics and renders them in Prometheus text
// format. All methods are safe for concurrent use; registration is
// expected at startup, scraping at any time. A render runs the
// collectors and GaugeFuncs without the registry lock, so renders may
// overlap: those functions must be safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	// metrics is sorted by id. Registration replaces the slice rather
	// than inserting in place, so a render reads the one it loaded
	// under the lock without holding it.
	metrics    []*metric
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register validates and inserts; it returns an error so tests can
// assert refusal, while the exported constructors turn it into the
// startup panic the leak audit demands.
func (r *Registry) register(m *metric) error {
	if r == nil {
		return nil
	}
	if !validName(m.name) {
		return fmt.Errorf("obs: invalid metric name %q", m.name)
	}
	if strings.TrimSpace(m.decl.Reason) == "" {
		return fmt.Errorf("obs: metric %q registered without a publicness justification; every value must declare why it is a public observable (obs.Public), a wall-clock measurement (obs.Timing) or shown on the trusted STATS surface only (obs.Trusted)", m.name)
	}
	for _, l := range m.labels {
		// Beyond what the exposition must escape, a value may not hold
		// the characters that delimit a STATS token (space, '=') or a
		// label set (',', '{', '}'): the STATS reader splits a token at
		// its last '=', and cluster.injectNodeLabel finds a series' label
		// set by its first '{'.
		if !validName(l.Key) || strings.ContainsAny(l.Value, "\"\n\\ =,{}") {
			return fmt.Errorf("obs: metric %q has invalid label %q=%q", m.name, l.Key, l.Value)
		}
	}
	sort.Slice(m.labels, func(i, j int) bool { return m.labels[i].Key < m.labels[j].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	m.key = m.id()
	at := sort.Search(len(r.metrics), func(i int) bool { return r.metrics[i].key >= m.key })
	if at < len(r.metrics) && r.metrics[at].key == m.key {
		return fmt.Errorf("obs: metric %s registered twice", m.key)
	}
	metrics := make([]*metric, 0, len(r.metrics)+1)
	metrics = append(append(metrics, r.metrics[:at]...), m)
	r.metrics = append(metrics, r.metrics[at:]...)
	return nil
}

func (r *Registry) must(m *metric) {
	if err := r.register(m); err != nil {
		panic(err)
	}
}

// Counter registers and returns a counter. It panics on a missing
// justification or duplicate identity — misregistration must fail at
// startup, not at scrape time. A nil registry returns a nil (no-op)
// instrument.
func (r *Registry) Counter(name, help string, d Decl, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.must(&metric{name: name, labels: labels, help: help, decl: d, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge (panics like Counter).
func (r *Registry) Gauge(name, help string, d Decl, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.must(&metric{name: name, labels: labels, help: help, decl: d, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at render
// time — for counters another subsystem already maintains (engine
// cycle counts, sealer totals) that should not be double-counted.
func (r *Registry) GaugeFunc(name, help string, d Decl, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.must(&metric{name: name, labels: labels, help: help, decl: d, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers and returns a histogram over the given upper
// bounds (panics like Counter).
func (r *Registry) Histogram(name, help string, d Decl, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not increasing", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1)}
	for _, b := range bounds {
		h.les = append(h.les, string(appendFloat(nil, b)))
	}
	h.les = append(h.les, "+Inf")
	r.must(&metric{name: name, labels: labels, help: help, decl: d, kind: kindHistogram, hist: h})
	return h
}

// Collect registers fn to run at the start of every render, before
// any series is read: one read shared by several GaugeFuncs (a
// shard's scheme counters) is taken once per render instead of once
// per series.
func (r *Registry) Collect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// render runs the collectors and appends, in registry order, the
// samples of every series whose class keep admits, framed by f. The
// exposition header, when header is set, precedes each metric name's
// first series.
func (r *Registry) render(dst []byte, f sampleFormat, header bool, keep func(Class) bool) []byte {
	r.mu.Lock()
	metrics, collectors := r.metrics, r.collectors
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	lastName := ""
	for _, m := range metrics {
		if !keep(m.decl.Class) {
			continue
		}
		if header && m.name != lastName {
			dst = m.appendHeader(dst)
			lastName = m.name
		}
		dst = m.appendSamples(dst, f)
	}
	return dst
}

func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// sampleFormat frames one sample. Every rendering shares the series
// text `name{labels}`; the exposition and the audit write
// `series value\n`, the STATS line ` series=value`.
type sampleFormat struct{ lead, sep, end string }

var (
	expositionSample = sampleFormat{sep: " ", end: "\n"}
	statsSample      = sampleFormat{lead: " ", sep: "="}
)

// appendSample renders one sample of m: its name plus suffix, its
// labels with an optional trailing le label, and value.
func (f sampleFormat) appendSample(dst []byte, m *metric, suffix, le string, value []byte) []byte {
	dst = append(dst, f.lead...)
	dst = append(dst, m.name...)
	dst = append(dst, suffix...)
	if len(m.labels) > 0 || le != "" {
		dst = append(dst, '{')
		for i, l := range m.labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendLabel(dst, l.Key, l.Value)
		}
		if le != "" {
			if len(m.labels) > 0 {
				dst = append(dst, ',')
			}
			dst = appendLabel(dst, "le", le)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, f.sep...)
	dst = append(dst, value...)
	return append(dst, f.end...)
}

func appendLabel(dst []byte, key, value string) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=', '"')
	dst = append(dst, value...)
	return append(dst, '"')
}

func (m *metric) appendSamples(dst []byte, f sampleFormat) []byte {
	var num [32]byte
	switch m.kind {
	case kindCounter:
		dst = f.appendSample(dst, m, "", "", strconv.AppendInt(num[:0], m.counter.Value(), 10))
	case kindGauge:
		dst = f.appendSample(dst, m, "", "", strconv.AppendInt(num[:0], m.gauge.Value(), 10))
	case kindGaugeFunc:
		dst = f.appendSample(dst, m, "", "", strconv.AppendInt(num[:0], m.fn(), 10))
	case kindHistogram:
		h := m.hist
		var cum int64
		for i, le := range h.les {
			cum += h.Bucket(i)
			dst = f.appendSample(dst, m, "_bucket", le, strconv.AppendInt(num[:0], cum, 10))
		}
		dst = f.appendSample(dst, m, "_sum", "", appendFloat(num[:0], h.Sum()))
		dst = f.appendSample(dst, m, "_count", "", strconv.AppendInt(num[:0], h.Count(), 10))
	}
	return dst
}

// appendHeader renders the exposition's HELP/TYPE/CLASS comments for
// m's name. The publicness class is surfaced so a scrape shows which
// series are part of the audited snapshot.
func (m *metric) appendHeader(dst []byte) []byte {
	class := "public"
	if m.decl.Class == ClassTiming {
		class = "timing"
	}
	dst = append(dst, "# HELP "...)
	dst = append(dst, m.name...)
	dst = append(dst, ' ')
	dst = append(dst, strings.ReplaceAll(m.help, "\n", " ")...)
	dst = append(dst, '\n')
	dst = append(dst, "# TYPE "...)
	dst = append(dst, m.name...)
	dst = append(dst, ' ')
	dst = append(dst, m.typeName()...)
	dst = append(dst, '\n')
	dst = append(dst, "# CLASS "...)
	dst = append(dst, m.name...)
	dst = append(dst, ' ')
	dst = append(dst, class...)
	return append(dst, '\n')
}

func (m *metric) typeName() string {
	switch m.kind {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// WritePrometheus renders every exported (Public or Timing) metric in
// Prometheus text exposition format (version 0.0.4), with one
// HELP/TYPE/CLASS header per metric name. Trusted series are skipped.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := w.Write(r.render(nil, expositionSample, true, func(c Class) bool { return c != ClassTrusted }))
	return err
}

// AppendStats appends one " series=value" token per sample of every
// series, Trusted included, in registry order — the body of the
// trusted STATS line. Each series is written as the exposition writes
// it (`horam_shard_cycles{shard="0"}=812`). Allocation-free once dst
// has room.
func (r *Registry) AppendStats(dst []byte) []byte {
	return r.render(dst, statsSample, false, func(Class) bool { return true })
}

// AuditText renders ONLY the ClassPublic samples, without comments —
// the audited snapshot. Two runs of adversarial workloads with equal
// public parameters must render byte-identical audit text; the
// differential test in internal/server enforces it.
func (r *Registry) AuditText() string {
	return string(r.render(nil, expositionSample, false, func(c Class) bool { return c == ClassPublic }))
}

// Decls returns every registered series id with its declaration —
// the audit trail reviewers (and the README) work from.
func (r *Registry) Decls() map[string]Decl {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Decl)
	for _, m := range r.metrics {
		out[m.key] = m.decl
	}
	return out
}

// ServeHTTP serves the Prometheus exposition — mount the registry at
// /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w) //horam:errok a scrape whose conn died mid-write has nobody to report to
}
