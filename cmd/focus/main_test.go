package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsCLI, when set in the environment, makes the test binary run main
// with its remaining arguments instead of the tests, so a test can drive
// the real CLI as a subprocess and read its stderr and exit code.
const runAsCLI = "FOCUS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCLI) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the focus CLI with args and returns its stderr and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsCLI+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
}

// TestFatalPrintsOnePrefix: an error that already carries the "focus: "
// prefix (from the facade or from a flag check) is printed with exactly
// one, and an error without it gains one.
func TestFatalPrintsOnePrefix(t *testing.T) {
	dir := t.TempDir()
	reads := filepath.Join(dir, "reads.fastq")
	seq := strings.Repeat("ACGTTGCAAGGCTTAC", 6)
	fastq := "@r1\n" + seq + "\n+\n" + strings.Repeat("I", len(seq)) + "\n"
	if err := os.WriteFile(reads, []byte(fastq), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "contigs.fasta")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"facade", []string{"-in", reads, "-out", out, "-k", "0"}, "focus: overlap: "},
		{"flag", []string{"-in", reads, "-out", out, "-phase-engine", "bogus"}, `focus: unknown -phase-engine "bogus"`},
		{"unprefixed", []string{"-in", filepath.Join(dir, "missing.fastq"), "-out", out}, "focus: open "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stderr, code := runCLI(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr)
			}
			if !strings.HasPrefix(stderr, tc.want) {
				t.Fatalf("stderr %q, want prefix %q", stderr, tc.want)
			}
			if n := strings.Count(stderr, "focus: "); n != 1 {
				t.Fatalf("stderr %q carries %d \"focus: \" prefixes, want 1", stderr, n)
			}
		})
	}
}
