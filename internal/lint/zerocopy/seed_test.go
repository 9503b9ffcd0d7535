package zerocopy_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/lint/analysis"
	"github.com/hvscan/hvscan/internal/lint/zerocopy"
)

// TestSeededRetentionBug proves the analyzer guards the real parser:
// it copies internal/htmlparse (plus its one internal dependency) into
// a scratch module, injects a view-retention bug — a token name built
// from the zero-copy input view stored into a package-level variable —
// and asserts zerocopy reports it. If the injection anchor drifts out
// of tokenizer.go the test fails loudly rather than passing vacuously.
func TestSeededRetentionBug(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	tmp := t.TempDir()
	copyFile(t, filepath.Join(root, "go.mod"), filepath.Join(tmp, "go.mod"))
	copyGoPackage(t, filepath.Join(root, "internal", "htmlparse"), filepath.Join(tmp, "internal", "htmlparse"))
	copyGoPackage(t, filepath.Join(root, "internal", "obs"), filepath.Join(tmp, "internal", "obs"))

	// Seed the bug. The anchor is the zero-copy fast path of
	// strAcc.take, which hands out every token string; a store through
	// the local keeps the view taint live (reading a string field back
	// off the token would not, by the view contract).
	tok := filepath.Join(tmp, "internal", "htmlparse", "tokenizer.go")
	src, err := os.ReadFile(tok)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "s := zcString(in[a.start:a.end])"
	const seeded = "s := zcString(in[a.start:a.end])\n\tlastSeenTagName = s"
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("injection anchor %q not found in tokenizer.go; update the seed test to match the parser", anchor)
	}
	out := strings.Replace(string(src), anchor, seeded, 1)
	out += "\nvar lastSeenTagName string\n"
	if err := os.WriteFile(tok, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs, err := analysis.Load(tmp, "./...")
	if err != nil {
		t.Fatalf("loading seeded copy of htmlparse: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{zerocopy.Analyzer})
	if err != nil {
		t.Fatal(err)
	}

	found := false
	for _, d := range diags {
		if d.Analyzer == "zerocopy" && strings.Contains(d.Message, "stored in package-level lastSeenTagName") {
			found = true
			continue
		}
		t.Errorf("unexpected diagnostic on seeded htmlparse: %s", d)
	}
	if !found {
		t.Fatalf("zerocopy missed the seeded retention bug; got %d diagnostics", len(diags))
	}
}

// copyGoPackage copies the non-test .go files of a single package
// directory (no recursion: the analyzers only need the sources that
// type-check into the package under test).
func copyGoPackage(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		copyFile(t, filepath.Join(from, name), filepath.Join(to, name))
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
