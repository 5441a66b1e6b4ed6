package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func tableNames() map[string]experiment {
	byName := map[string]experiment{}
	for _, e := range experiments {
		byName[e.name] = e
	}
	return byName
}

func TestTableNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true} // "all" is the dispatcher's, not an entry's
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment name %q is taken twice", e.name)
		}
		seen[e.name] = true
		if e.run == nil || e.about == "" {
			t.Errorf("experiment %q: missing run or about", e.name)
		}
	}
}

// The -exp help lists "all" and then exactly the table, in table order.
func TestUsageListsExactlyTheTable(t *testing.T) {
	lines := strings.Split(expUsage(), "\n")[1:] // [0] is the heading
	var got []string
	for _, l := range lines {
		got = append(got, strings.Fields(l)[0])
	}
	want := []string{"all"}
	for _, e := range experiments {
		want = append(want, e.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-exp help lists %v, table has %v", got, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	// The five retired serving-path experiments must stay retired:
	// `go run ./benchmark` measures that path.
	for _, name := range []string{"shard", "latency", "persist", "kv", "obs", "", "nope"} {
		var out bytes.Buffer
		err := run(&out, name, options{})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %q: err = %v, want unknown experiment", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %q printed %q before failing", name, out.String())
		}
	}
}

// timing measures the host, not the simulated machine: reachable by
// name, never part of all, and the only experiment with a JSON form.
func TestTimingNotInAll(t *testing.T) {
	e, ok := tableNames()["timing"]
	if !ok {
		t.Fatal("no timing experiment; scripts/timing_gate.sh runs -exp timing -out")
	}
	if e.inAll || !e.json {
		t.Fatalf("timing: inAll=%v json=%v, want false/true", e.inAll, e.json)
	}
	if !strings.Contains(outUsage(), "-exp timing") {
		t.Fatalf("-out help %q does not name timing", outUsage())
	}
}

// -out is refused, before anything runs, unless -exp names a single
// experiment with a JSON form.
func TestOutNeedsAJSONExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, name := range []string{"all", "fig5-1", "concurrency"} {
		var out bytes.Buffer
		err := run(&out, name, options{out: path})
		if err == nil || !strings.Contains(err.Error(), "no JSON form") {
			t.Errorf("-exp %s -out: err = %v, want no JSON form", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s -out printed %q before failing", name, out.String())
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused -out still touched %s (stat err %v)", path, err)
	}
}

func TestRunPrintsOneExperimentThenABlankLine(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "table5-1", options{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "== ") || !strings.HasSuffix(s, "\n\n") || strings.Count(s, "\n== ") != 0 {
		t.Fatalf("-exp table5-1 printed %q, want one table and a trailing blank line", s)
	}
}

// Every `-exp <name>` and `make bench-<x>` / `make <x>-smoke` the docs
// mention must exist, so they cannot drift from the tool again.
func TestDocsNameOnlyLiveTargets(t *testing.T) {
	root := filepath.Join("..", "..")
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	phonyLine := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	if phonyLine == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	phony := map[string]bool{}
	for _, target := range strings.Fields(string(phonyLine[1])) {
		phony[target] = true
	}

	names := tableNames()
	expRef := regexp.MustCompile(`-exp ([a-z0-9][a-z0-9-]*)`)
	makeRef := regexp.MustCompile(`make (bench-[a-z-]+|[a-z]+-smoke)`)
	for _, doc := range []string{"README.md", "Makefile", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expRef.FindAllSubmatch(text, -1) {
			if name := string(m[1]); name != "all" {
				if _, ok := names[name]; !ok {
					t.Errorf("%s mentions `-exp %s`, which horam-bench does not have", doc, name)
				}
			}
		}
		for _, m := range makeRef.FindAllSubmatch(text, -1) {
			if !phony[string(m[1])] {
				t.Errorf("%s mentions `make %s`, which is not a .PHONY target", doc, m[1])
			}
		}
	}
}
