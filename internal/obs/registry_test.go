package obs

import (
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
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.NumBuckets() != 0 {
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
