package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"swizzleqos/internal/analysis"
)

func TestRunUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Errorf("stderr does not name the bad flag: %q", stderr.String())
	}
}

func TestRunUnreadableAllowlist(t *testing.T) {
	// A directory opens but cannot be read as a file.
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", "../..", "-allow", dir}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "is a directory") {
		t.Errorf("stderr does not report the unreadable allowlist: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("findings printed despite the allowlist error: %q", stdout.String())
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("writeJSON(nil) = %q, want []", got)
	}
}

// TestProblemMatcher pins the CI-annotation contract: the plain output
// line must match the problem matcher's regexp, with each capture group
// landing on the field the matcher assigns it.
func TestProblemMatcher(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", ".github", "problem-matchers", "ssvc-lint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp                    string
				File, Line, Code, Message int
			}
		}
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.ProblemMatcher) != 1 || len(cfg.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", cfg)
	}
	p := cfg.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(p.Regexp)
	d := analysis.Diagnostic{
		File: "internal/core/ssvc.go", Line: 431, Analyzer: "countersafety",
		Message: "unsigned subtraction s.aux[i] - s.quantum may wrap below zero",
	}
	m := re.FindStringSubmatch(d.String())
	if m == nil {
		t.Fatalf("%q does not match %q", d.String(), p.Regexp)
	}
	for _, f := range []struct {
		name  string
		group int
		want  string
	}{
		{"file", p.File, d.File},
		{"line", p.Line, "431"},
		{"code", p.Code, d.Analyzer},
		{"message", p.Message, d.Message},
	} {
		if f.group <= 0 || f.group >= len(m) || m[f.group] != f.want {
			t.Errorf("%s: group %d of %q, want %q", f.name, f.group, d.String(), f.want)
		}
	}
}
