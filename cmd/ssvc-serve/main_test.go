package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeReplayTraceIdentical runs a short scripted scenario with a
// journal and a trace, replays the journal offline with its own trace,
// and requires the two trace files to match byte for byte.
func TestServeReplayTraceIdentical(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	live := filepath.Join(dir, "live.trace")
	replayed := filepath.Join(dir, "replay.trace")

	var stdout, stderr bytes.Buffer
	args := []string{
		"-journal", journal, "-trace", live,
		"-script", filepath.Join("..", "..", "scripts", "serve_check.script"),
		"-total", "12000", "-snap-every", "3000", "-fail", "in4@6000", "-seed", "42",
	}
	if code := serveMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("serve run exited %d: %s", code, stderr.String())
	}
	stdout.Reset()
	if code := serveMain([]string{"-replay", journal, "-trace", replayed}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay exited %d: %s", code, stderr.String())
	}

	a, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || bytes.Count(a, []byte("\n")) < 100 {
		t.Fatalf("live trace has only %d lines; the scenario delivered too little to compare", bytes.Count(a, []byte("\n")))
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("replayed trace (%d bytes) differs from the live trace (%d bytes)", len(c), len(a))
	}
}

// TestServeRequiresJournal: serve mode without -journal (and without
// -replay) is a usage error.
func TestServeRequiresJournal(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := serveMain([]string{"-total", "10"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-journal is required") {
		t.Errorf("stderr %q does not name the missing flag", stderr.String())
	}
}
