package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for horam-lint: with
// HORAM_LINT_RUN_MAIN=1 set it runs main() instead of the tests, so
// each case below drives the real driver (flags, package loading, exit
// status) in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("HORAM_LINT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lint runs horam-lint with args in dir ("" for this package's
// directory) and returns its exit status, stdout and stderr.
func lint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "HORAM_LINT_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

func TestCleanPackageExitsZeroSilently(t *testing.T) {
	if code, out, errOut := lint(t, "", "."); code != 0 || out != "" || errOut != "" {
		t.Fatalf("horam-lint . = exit %d, stdout %q, stderr %q; want 0 and no output", code, out, errOut)
	}
}

// fixture has two errdrop findings with a ctflow finding between them.
const fixture = `package fixture

import "os"

func first(f *os.File) { f.Close() }

//horam:constant-time
//horam:secret v
func branch(v int) int {
	if v == 1 {
		return 1
	}
	return 0
}

func second(f *os.File) { f.Close() }
`

// TestFindingsAreSortedAndDeduplicated lints a module holding only
// fixture. Naming errdrop twice reports each of its findings twice, and
// the analyzers report in the order they run; the driver must print
// every finding once, sorted by position text.
func TestFindingsAreSortedAndDeduplicated(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"go.mod": "module fixture\n\ngo 1.24\n", "a.go": fixture} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errOut := lint(t, dir, "-c", "errdrop,ctflow,errdrop")
	if code != 1 {
		t.Fatalf("exit %d on a package with findings, want 1:\n%s%s", code, out, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	want := []string{"10:2: [ctflow] ", "16:27: [errdrop] ", "5:26: [errdrop] "}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, l := range lines {
		if _, pos, _ := strings.Cut(l, string(filepath.Separator)+"a.go:"); !strings.HasPrefix(pos, want[i]) || pos == want[i] {
			t.Fatalf("line %d = %q, want <dir>/a.go:%s followed by a message:\n%s", i, l, want[i], out)
		}
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	if code, _, errOut := lint(t, "", "-c", "nosuch", "."); code != 2 || !strings.Contains(errOut, "unknown analyzer") {
		t.Fatalf("-c nosuch = exit %d, stderr %q; want 2 and unknown analyzer", code, errOut)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, out, _ := lint(t, "", "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"ctflow", "ctmask", "errdrop"} {
		if !strings.Contains(out, name+": ") {
			t.Errorf("-list output lacks %s:\n%s", name, out)
		}
	}
}
