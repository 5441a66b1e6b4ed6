package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Registration without a publicness justification must fail at
// startup — the mechanical half of the leak audit.
func TestRegistrationRequiresJustification(t *testing.T) {
	r := NewRegistry()
	if err := r.register(&metric{name: "bad_counter", decl: Decl{}, kind: kindCounter, counter: &Counter{}}); err == nil {
		t.Fatal("registering a metric with an empty Decl should be refused")
	}
	if err := r.register(&metric{name: "bad_counter", decl: Decl{Class: ClassPublic, Reason: "   "}, kind: kindCounter, counter: &Counter{}}); err == nil {
		t.Fatal("a whitespace-only justification should be refused")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Counter with empty Decl should panic at startup")
		}
	}()
	r.Counter("bad_counter", "", Decl{})
}

func TestDuplicateAndInvalidRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", Public("test"))
	if err := r.register(&metric{name: "dup_total", decl: Public("test"), kind: kindCounter, counter: &Counter{}}); err == nil {
		t.Fatal("duplicate series should be refused")
	}
	// Same name with different labels is a distinct series.
	r.Counter("dup_total", "", Public("test"), Label{"shard", "0"})
	if err := r.register(&metric{name: "bad name", decl: Public("test"), kind: kindCounter, counter: &Counter{}}); err == nil {
		t.Fatal("invalid metric name should be refused")
	}
	if err := r.register(&metric{name: "ok_total", decl: Public("test"), kind: kindCounter, counter: &Counter{},
		labels: []Label{{"k", "v\"w"}}}); err == nil {
		t.Fatal("label value with a quote should be refused")
	}
}

// A nil registry hands out nil instruments, and every instrument
// method must be nil-receiver safe — that is the no-op mode of an
// engine with no registry wired.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "", Public("test"))
	g := r.Gauge("x", "", Public("test"))
	h := r.Histogram("x_seconds", "", Timing("test"), DurationBounds())
	r.GaugeFunc("y", "", Public("test"), func() int64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(0.5)
	h.ObserveDuration(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Bucket(0) != 0 || h.BucketString() != "-" {
		t.Fatal("nil instruments should read as zero")
	}
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.Begin("x", 0).End(Arg{"k", 1})
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("horam_requests_total", "client ops", Public("client-visible op count"))
	c.Add(7)
	for i := 0; i < 4; i++ {
		r.GaugeFunc("horam_shard_cycles", "cycles", Public("leveled"),
			func() int64 { return 42 }, Label{"shard", itoa(i)})
	}
	h := r.Histogram("horam_batch_seconds", "latency", Timing("wall clock"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP horam_requests_total client ops",
		"# TYPE horam_requests_total counter",
		"# CLASS horam_requests_total public",
		"horam_requests_total 7",
		`horam_shard_cycles{shard="2"} 42`,
		"# TYPE horam_batch_seconds histogram",
		"# CLASS horam_batch_seconds timing",
		`horam_batch_seconds_bucket{le="0.1"} 1`,
		`horam_batch_seconds_bucket{le="1"} 2`,
		`horam_batch_seconds_bucket{le="+Inf"} 3`,
		"horam_batch_seconds_sum 5.55",
		"horam_batch_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP header per name even with four labeled series.
	if n := strings.Count(out, "# HELP horam_shard_cycles"); n != 1 {
		t.Fatalf("HELP for horam_shard_cycles rendered %d times", n)
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("content type = %q", got)
	}
	if rec.Body.String() != out {
		t.Fatal("ServeHTTP body differs from WritePrometheus")
	}
}

// The audited snapshot carries only Public-class series; Timing-class
// values (wall clock) must not appear.
func TestAuditTextExcludesTiming(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total", "", Public("test")).Add(3)
	r.Histogram("lat_seconds", "", Timing("wall clock"), DurationBounds()).Observe(0.25)
	out := r.AuditText()
	if !strings.Contains(out, "pub_total 3") {
		t.Fatalf("audit missing public counter:\n%s", out)
	}
	if strings.Contains(out, "lat_seconds") {
		t.Fatalf("audit leaked a timing-class metric:\n%s", out)
	}
	if strings.Contains(out, "#") {
		t.Fatalf("audit text should carry no comments:\n%s", out)
	}
	decls := r.Decls()
	if d, ok := decls["pub_total"]; !ok || d.Class != ClassPublic {
		t.Fatalf("Decls() = %v", decls)
	}
}

// Rendering order is deterministic regardless of registration order —
// the differential test compares snapshots byte for byte.
func TestDeterministicOrder(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		for _, i := range order {
			r.Counter("m_total", "", Public("test"), Label{"shard", itoa(i)}).Add(int64(i))
		}
		r.Counter("a_total", "", Public("test")).Add(9)
		return r.AuditText()
	}
	if build([]int{0, 1, 2, 3}) != build([]int{3, 1, 0, 2}) {
		t.Fatal("audit text depends on registration order")
	}
	if !strings.HasPrefix(build([]int{0}), "a_total 9\n") {
		t.Fatal("series not sorted by id")
	}
}

// Hot-path instrument updates must not allocate or lock — they run
// inside the PR 6 zero-alloc steady state.
func TestInstrumentsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", Public("test"))
	g := r.Gauge("g", "", Public("test"))
	h := r.Histogram("h_seconds", "", Timing("test"), DurationBounds())
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Add(1)
		h.Observe(1e-4)
		h.ObserveDuration(3 * time.Millisecond)
	}); n != 0 {
		t.Fatalf("instrument updates allocate %.1f times per run", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bs", "", Public("test"), BatchSizeBounds())
	for _, v := range []float64{1, 2, 3, 4, 5, 64, 65, 1000} {
		h.Observe(v)
	}
	want := []int64{1, 1, 2, 1, 0, 0, 1, 2} // le 1,2,4,8,16,32,64,+Inf
	for i, w := range want {
		if got := h.Bucket(i); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", Public("test"))
	h := r.Histogram("h_seconds", "", Timing("test"), DurationBounds())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("c=%d h=%d", c.Value(), h.Count())
	}
	if s := h.Sum(); s < 7.99 || s > 8.01 {
		t.Fatalf("sum = %v", s)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// Trusted series are rendered for STATS only: adding them to a
// registry leaves the exposition and the audit byte-identical.
func TestTrustedSeriesStayOffTheExposition(t *testing.T) {
	build := func(trusted bool) *Registry {
		r := NewRegistry()
		r.Counter("horam_ops_total", "ops", Public("test")).Add(5)
		r.GaugeFunc("horam_shard_cycles", "cycles", Public("test"), func() int64 { return 9 }, Label{"shard", "0"})
		r.Histogram("horam_batch_seconds", "latency", Timing("test"), []float64{0.1, 1}).Observe(0.5)
		if trusted {
			r.GaugeFunc("horam_shard_hits", "hits", Trusted("test"), func() int64 { return 4 }, Label{"shard", "0"})
			r.Counter("horam_aaa_total", "sorts first", Trusted("test")).Add(2)
			r.Histogram("horam_shard_drain_size", "sizes", Trusted("test"), BatchSizeBounds(), Label{"shard", "0"}).Observe(3)
		}
		return r
	}
	plain, withTrusted := build(false), build(true)
	var a, b strings.Builder
	if err := plain.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := withTrusted.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("Trusted series changed the exposition:\nwithout:\n%s\nwith:\n%s", a.String(), b.String())
	}
	if plain.AuditText() != withTrusted.AuditText() {
		t.Fatalf("Trusted series changed the audit:\nwithout:\n%s\nwith:\n%s", plain.AuditText(), withTrusted.AuditText())
	}
	stats := string(withTrusted.AppendStats(nil))
	for _, want := range []string{
		" horam_aaa_total=2",
		` horam_shard_hits{shard="0"}=4`,
		` horam_shard_drain_size_bucket{shard="0",le="4"}=1`,
		` horam_shard_cycles{shard="0"}=9`,
		` horam_batch_seconds_bucket{le="+Inf"}=1`,
	} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS body missing %q:\n%s", want, stats)
		}
	}
}

// AppendStats renders every sample as one " series=value" token in
// registry order, with the exposition's series text.
func TestAppendStatsTokens(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "", Public("test")).Add(3)
	r.Histogram("a_size", "", Trusted("test"), []float64{1, 2}, Label{"shard", "1"}).Observe(2)
	want := ` a_size_bucket{shard="1",le="1"}=0 a_size_bucket{shard="1",le="2"}=1 a_size_bucket{shard="1",le="+Inf"}=1` +
		` a_size_sum{shard="1"}=2 a_size_count{shard="1"}=1 b_total=3`
	if got := string(r.AppendStats(nil)); got != want {
		t.Fatalf("AppendStats =\n%q\nwant\n%q", got, want)
	}
	buf := r.AppendStats(nil)
	if n := testing.AllocsPerRun(100, func() { buf = r.AppendStats(buf[:0]) }); n != 0 {
		t.Fatalf("AppendStats allocates %.1f times per run into a warm buffer", n)
	}
}

// A label value may not hold what delimits a STATS token or a label
// set: the STATS reader splits each token at its last '=', and the
// gateway's node relabelling finds the label set by its first '{'.
func TestLabelValuesSurviveBothParsers(t *testing.T) {
	r := NewRegistry()
	for _, v := range []string{"a b", "a=b", "a,b", "{a", "a}"} {
		if err := r.register(&metric{name: "l_total", decl: Public("test"), kind: kindCounter, counter: &Counter{},
			labels: []Label{{"k", v}}}); err == nil {
			t.Errorf("label value %q accepted", v)
		}
	}
	r.Counter("l_total", "", Public("test"), Label{"shard", "0"}, Label{"verb", "get"})
	defer func() {
		if recover() == nil {
			t.Fatal("Counter with a label value holding '=' should panic at startup")
		}
	}()
	r.Counter("l_total", "", Public("test"), Label{"k", "x=1"})
}

// Collectors run once per render, before any series is read.
func TestCollectRunsOncePerRender(t *testing.T) {
	r := NewRegistry()
	var runs, seen int64
	r.Collect(func() { runs++ })
	for i := 0; i < 3; i++ {
		r.GaugeFunc("c", "", Trusted("test"), func() int64 { seen = runs; return runs }, Label{"shard", itoa(i)})
	}
	r.AppendStats(nil)
	if runs != 1 || seen != 1 {
		t.Fatalf("after one render: %d collector runs, series saw %d", runs, seen)
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("after two renders: %d collector runs", runs)
	}
}

// BucketString labels each non-empty bucket by the integers it holds.
func TestBucketString(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bs", "", Trusted("test"), BatchSizeBounds())
	if got := h.BucketString(); got != "-" {
		t.Fatalf("empty histogram renders %q, want -", got)
	}
	for _, v := range []float64{1, 1, 2, 3, 7, 64, 65, 1000} {
		h.Observe(v)
	}
	if got, want := h.BucketString(), "1:2,2:1,3-4:1,5-8:1,33-64:1,65+:2"; got != want {
		t.Fatalf("BucketString = %q, want %q", got, want)
	}
	var nilHist *Histogram
	if got := nilHist.BucketString(); got != "-" {
		t.Fatalf("nil histogram renders %q, want -", got)
	}
}
