package repro

import (
	"os"
	"path"
	"strings"
	"testing"
)

// TestEveryCommandAndExampleIsInReadme fails when a directory under
// cmd/ or examples/ is not named in README.md, so a binary that no
// documented workflow runs cannot accumulate unnoticed.
func TestEveryCommandAndExampleIsInReadme(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"cmd", "examples"} {
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
