package client

import "testing"

// FuzzParseStats feeds arbitrary STATS response lines through the
// reader a gateway runs on every node's answer — a hop an adversary
// on the network can forge. The committed corpus
// (testdata/fuzz/FuzzParseStats) holds real lines from a block-mode,
// a KV-mode and a 2-shard daemon. A line may be refused, but never
// panic, and an accepted line carries exactly one group per declared
// shard, in shard order.
func FuzzParseStats(f *testing.F) {
	f.Add("ERR engine closed")
	f.Add("OK shards=-1")
	f.Add("OK requests=1 shards=70000 s0_cycles=1")
	f.Add("OK = == k= =v max_cycle=1e309s")

	f.Fuzz(func(t *testing.T, line string) {
		kv, err := parseKVLine(line)
		if err != nil {
			return
		}
		st, err := ParseStats(kv)
		if err != nil {
			return
		}
		if len(st.PerShard) != st.Shards {
			t.Fatalf("%d shard groups for shards=%d", len(st.PerShard), st.Shards)
		}
		for i, sh := range st.PerShard {
			if sh.Shard != i {
				t.Fatalf("group %d carries shard id %d", i, sh.Shard)
			}
		}
	})
}
