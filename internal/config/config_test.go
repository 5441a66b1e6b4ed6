package config

import (
	"reflect"
	"strings"
	"testing"
)

// valid is a Common every Validate rule accepts; each refusal case
// breaks exactly one rule of it.
func valid() Common {
	return Common{
		Blocks:      1024,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Key:         make([]byte, 32),
		Shards:      2,
		Seed:        "config-test",
	}
}

func TestValidateAcceptsValid(t *testing.T) {
	c := valid()
	c.ClusterShards, c.ShardIndex = 4, 3
	c.ShuffleRatio = 1
	c.Stages = []Stage{{C: 1, Frac: 0.25}, {C: 3, Frac: 0.75}}
	if err := c.Validate("engine"); err != nil {
		t.Fatal(err)
	}
	insecure := valid()
	insecure.Key, insecure.Insecure = nil, true
	if err := insecure.Validate("engine"); err != nil {
		t.Fatalf("Insecure needs no key: %v", err)
	}
}

// TestValidateRefusals walks every Validate rule. Each error carries
// the caller's prefix, so a refusal says which layer made it.
func TestValidateRefusals(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Common)
		want   string
	}{
		{"zero blocks", func(c *Common) { c.Blocks = 0 }, "Blocks must be positive"},
		{"negative blocks", func(c *Common) { c.Blocks = -1 }, "Blocks must be positive"},
		{"negative block size", func(c *Common) { c.BlockSize = -64 }, "negative BlockSize"},
		{"zero memory", func(c *Common) { c.MemoryBytes = 0 }, "MemoryBytes must be positive"},
		{"negative fsync", func(c *Common) { c.FsyncEvery = -1 }, "negative FsyncEvery"},
		{"shuffle ratio below 0", func(c *Common) { c.ShuffleRatio = -0.1 }, "ShuffleRatio"},
		{"shuffle ratio above 1", func(c *Common) { c.ShuffleRatio = 1.5 }, "ShuffleRatio"},
		{"short key", func(c *Common) { c.Key = make([]byte, 16) }, "Key must be 32 bytes"},
		{"missing key", func(c *Common) { c.Key = nil }, "Key must be 32 bytes"},
		{"negative cluster shards", func(c *Common) { c.ClusterShards = -1 }, "negative cluster identity"},
		{"negative shard index", func(c *Common) { c.ClusterShards, c.ShardIndex = 2, -1 }, "negative cluster identity"},
		{"index without cluster", func(c *Common) { c.ShardIndex = 1 }, "without ClusterShards"},
		{"index out of range", func(c *Common) { c.ClusterShards, c.ShardIndex = 2, 2 }, "out of [0,2)"},
		{"stage with zero c", func(c *Common) { c.Stages = []Stage{{C: 0, Frac: 1}} }, "invalid stage"},
		{"stage with negative frac", func(c *Common) { c.Stages = []Stage{{C: 1, Frac: -0.5}, {C: 2, Frac: 1.5}} }, "invalid stage"},
		{"stages not summing to 1", func(c *Common) { c.Stages = []Stage{{C: 1, Frac: 0.5}} }, "sum to"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.mutate(&c)
			err := c.Validate("someprefix")
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.HasPrefix(err.Error(), "someprefix: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want prefix %q and mention of %q", err, "someprefix: ", tc.want)
			}
		})
	}
}

// TestCheckManifestCoversEveryEchoedField pins the package doc's claim
// that echo and check can never disagree on the field set: for every
// snapshot.Manifest field except Epoch (bumped by every restore) and
// KV (okv validates its own geometry), a manifest that differs from
// the echo in that field alone is refused, and the refusal names it.
// A field added to Manifest but not to CheckManifest fails here. Every
// echoed field of c is non-zero, so one that Manifest forgets to echo
// fails the first check.
func TestCheckManifestCoversEveryEchoedField(t *testing.T) {
	c := valid()
	c.ClusterShards, c.ShardIndex = 4, 1
	c.ShuffleRatio = 0.5
	c.ConstantTime, c.Insecure = true, true
	echo := c.Manifest(7)
	if err := c.CheckManifest(&echo); err != nil {
		t.Fatalf("the echo itself is refused: %v", err)
	}
	typ := reflect.TypeOf(echo)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Epoch" || name == "KV" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			man := c.Manifest(7)
			f := reflect.ValueOf(&man).Elem().Field(i)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.25)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				f.SetString(f.String() + "-drift")
			default:
				t.Fatalf("field %s has kind %s; teach this test to perturb it", name, f.Kind())
			}
			err := c.CheckManifest(&man)
			if err == nil {
				t.Fatalf("a manifest drifted in %s alone was accepted", name)
			}
			if !strings.Contains(err.Error(), name+" is ") {
				t.Fatalf("refusal %q does not name %s", err, name)
			}
		})
	}
}

func TestCheckManifestRefusesNil(t *testing.T) {
	if err := valid().CheckManifest(nil); err == nil {
		t.Fatal("nil manifest accepted")
	}
}
