package cluster

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzInjectNodeLabel feeds arbitrary text through the gateway's
// relabelling of a node's METRICS answer — text that crosses the
// cleartext gateway↔node hop, so a forged node can send anything. The
// committed corpus (testdata/fuzz/FuzzInjectNodeLabel) starts from a
// real node's exposition. The relabelling must never panic, drop every
// comment line, put node="<node>" first in every labelled line's label
// set, and never add lines.
func FuzzInjectNodeLabel(f *testing.F) {
	f.Add("horam_shard_cycles{shard=\"0\"} 42\n# TYPE x gauge\n", 3)
	f.Add(" {}{ \n#\n\n{", 0)

	f.Fuzz(func(t *testing.T, text string, node int) {
		out := injectNodeLabel(text, node)
		label := `node="` + strconv.Itoa(node) + `"`
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if out == "" {
			lines = nil
		}
		if in := strings.Count(text, "\n") + 1; len(lines) > in {
			t.Fatalf("%d input lines became %d output lines", in, len(lines))
		}
		for _, line := range lines {
			if strings.HasPrefix(line, "#") {
				t.Fatalf("comment line %q passed through", line)
			}
			if !strings.ContainsAny(line, " {") {
				continue
			}
			i := strings.IndexByte(line, '{')
			if i < 0 || !strings.HasPrefix(line[i+1:], label) {
				t.Fatalf("line %q does not open its label set with %s", line, label)
			}
		}
	})
}
