package repro

import (
	"os"
	"path"
	"strings"
	"testing"
)

// TestEveryCommandAndExampleIsInReadme fails when a directory under
// cmd/, examples/ or internal/ is not named in README.md, so neither a
// binary that no documented workflow runs nor a package the layout
// does not explain can accumulate unnoticed.
func TestEveryCommandAndExampleIsInReadme(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"cmd", "examples", "internal"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if dir := path.Join(root, e.Name()); !strings.Contains(string(readme), dir) {
				t.Errorf("%s is not named in README.md: document it or delete it", dir)
			}
		}
	}
}
