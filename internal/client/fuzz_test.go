package client

import (
	"strings"
	"testing"
)

// FuzzParseStats feeds arbitrary STATS response lines through the
// reader a gateway runs on every node's answer — a hop an adversary
// on the network can forge. The committed corpus
// (testdata/fuzz/FuzzParseStats) holds real lines from a block-mode,
// a KV-mode and a 2-shard daemon. A line may be refused, but never
// panic; a refused line's error is the server's message; an accepted
// line reads as series=value pairs split at each token's last '=',
// and StatInt on any series either reads an integer or names the
// series.
func FuzzParseStats(f *testing.F) {
	f.Add("ERR engine closed")
	f.Add("OK shards=-1")
	f.Add("OK requests=1 shards=70000 s0_cycles=1")
	f.Add("OK = == k= =v max_cycle=1e309s")

	f.Fuzz(func(t *testing.T, line string) {
		kv, err := parseKVLine(line)
		if err != nil {
			if want := "client: " + strings.TrimPrefix(line, "ERR "); err.Error() != want {
				t.Fatalf("refusal %q, want %q", err, want)
			}
			return
		}
		tokens := map[string]bool{}
		for _, tok := range strings.Fields(line)[1:] {
			tokens[tok] = true
		}
		for series, v := range kv {
			if strings.Contains(v, "=") || !tokens[series+"="+v] {
				t.Fatalf("pair %q=%q is not a token split at its last '='", series, v)
			}
			if _, err := StatInt(kv, series); err != nil && !strings.Contains(err.Error(), series) {
				t.Fatalf("StatInt(%q) error %q does not name the series", series, err)
			}
		}
	})
}
