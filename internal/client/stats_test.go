package client

import (
	"strings"
	"testing"
)

// statsFixture is a 2-shard KV-mode STATS line cut down to a few
// series of each shape internal/server renders: "OK", then one
// series=value token per registry sample, labelled series included.
// The live round trip against a real server lives in internal/server's
// obs tests; these unit tests pin the reader's own contract.
const statsFixture = `OK horam_engine_ops_total=96 horam_kv_capacity=64 horam_kv_count=5 horam_kv_misses=2` +
	` horam_server_drain_seconds_sum=0.012288 horam_server_kv_ops_total{verb="get"}=10` +
	` horam_server_window_requests_total=96 horam_server_window_size_bucket{le="1"}=12` +
	` horam_shard_cycles{shard="0"}=60 horam_shard_cycles{shard="1"}=60` +
	` horam_shard_drain_size_bucket{shard="1",le="2"}=30 horam_shard_drain_size_bucket{shard="1",le="+Inf"}=30` +
	` horam_shard_max_cycle_ns{shard="1"}=128000 horam_shard_pad_cycles{shard="1"}=14`

func TestParseStatsFixture(t *testing.T) {
	kv, err := parseKVLine(statsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(kv), strings.Count(statsFixture, " "); got != want {
		t.Fatalf("read %d series from %d tokens", got, want)
	}
	for series, want := range map[string]int64{
		"horam_engine_ops_total":                             96,
		`horam_server_kv_ops_total{verb="get"}`:              10,
		`horam_shard_pad_cycles{shard="1"}`:                  14,
		`horam_shard_max_cycle_ns{shard="1"}`:                128000,
		`horam_shard_drain_size_bucket{shard="1",le="+Inf"}`: 30,
		`horam_server_window_size_bucket{le="1"}`:            12,
		`horam_shard_drain_size_bucket{shard="1",le="2"}`:    30,
		`horam_shard_cycles{shard="0"}`:                      60,
		"horam_kv_capacity":                                  64,
		"horam_server_window_requests_total":                 96,
	} {
		if got, err := StatInt(kv, series); err != nil || got != want {
			t.Errorf("StatInt(%s) = %d, %v; want %d", series, got, err, want)
		}
	}
	if v := kv["horam_server_drain_seconds_sum"]; v != "0.012288" {
		t.Errorf("float series read as %q", v)
	}
}

func TestParseStatsWithoutKVGroup(t *testing.T) {
	var tokens []string
	for _, tok := range strings.Fields(statsFixture) {
		if !strings.HasPrefix(tok, "horam_kv_") {
			tokens = append(tokens, tok)
		}
	}
	kv, err := parseKVLine(strings.Join(tokens, " "))
	if err != nil {
		t.Fatal(err)
	}
	for series := range kv {
		if strings.HasPrefix(series, "horam_kv_") {
			t.Fatalf("kv series %s materialised from nothing", series)
		}
	}
	if _, err := StatInt(kv, "horam_kv_count"); err == nil || !strings.Contains(err.Error(), "horam_kv_count") {
		t.Fatalf("reading an absent kv series: %v", err)
	}
}

func TestParseStatsErrors(t *testing.T) {
	// An ERR answer is the server's message, prefixed as every client
	// error is.
	if _, err := parseKVLine("ERR engine closed"); err == nil || err.Error() != "client: engine closed" {
		t.Fatalf("ERR line read as %v", err)
	}
	// Every value failure must name the offending series.
	kv, err := parseKVLine(statsFixture)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate func(map[string]string)
		series string
	}{
		{func(kv map[string]string) { delete(kv, "horam_engine_ops_total") }, "horam_engine_ops_total"},
		{func(kv map[string]string) { kv[`horam_shard_cycles{shard="1"}`] = "many" }, `horam_shard_cycles{shard="1"}`},
		{func(kv map[string]string) { kv["horam_kv_misses"] = "-" }, "horam_kv_misses"},
		{func(map[string]string) {}, "horam_server_drain_seconds_sum"},
	}
	for _, tc := range cases {
		m := make(map[string]string, len(kv))
		for k, v := range kv {
			m[k] = v
		}
		tc.mutate(m)
		if _, err := StatInt(m, tc.series); err == nil || !strings.Contains(err.Error(), tc.series) {
			t.Errorf("StatInt(%s) after mutation: err = %v, want mention of it", tc.series, err)
		}
	}
}
