package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/hvscan/hvscan/internal/perf"
)

// embedded matches a delta table a doc quotes from two recorded runs:
//
//	<!-- hvbench delta OLD.json NEW.json -->
//	| benchmark | ... (perf.Compare(OLD, NEW).Markdown()) |
//	<!-- /hvbench -->
var embedded = regexp.MustCompile(`(?s)<!-- hvbench delta (\S+) (\S+) -->\n(.*?)<!-- /hvbench -->`)

// TestEmbeddedTablesMatchRecords re-renders every delta table the docs
// quote from the records it names, in the gate's own table format: a
// throughput figure in the docs is the record's, never a hand-typed
// copy. On a mismatch it prints the table to paste.
func TestEmbeddedTablesMatchRecords(t *testing.T) {
	root := filepath.Join("..", "..")
	n := 0
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range embedded.FindAllSubmatch(b, -1) {
			n++
			old, err := readRun(filepath.Join(root, string(m[1])))
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			cur, err := readRun(filepath.Join(root, string(m[2])))
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if want := perf.Compare(old, cur, 0.10).Markdown(); string(m[3]) != want {
				t.Errorf("%s: the table for %s → %s does not match the records; it should read:\n%s", doc, m[1], m[2], want)
			}
		}
	}
	if n == 0 {
		t.Fatal("no embedded hvbench tables found")
	}
}
