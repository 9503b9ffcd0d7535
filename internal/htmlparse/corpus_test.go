package htmlparse_test

import (
	"path/filepath"
	"testing"

	"github.com/hvscan/hvscan/internal/conformance"
)

// TestTreeConstructionConformance shows, one subtest per case, the
// conformance runner's verdict on this package's tree-construction
// cases: exact tree and exact errors. TestCheckedInCorpus
// (internal/conformance) gates them with the rest of the corpus.
func TestTreeConstructionConformance(t *testing.T) {
	r := conformance.NewRunner(nil)
	if _, err := r.RunTreeDir(filepath.Join("testdata", "tree-construction")); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Report().Results {
		t.Run(c.ID, func(t *testing.T) {
			if c.Outcome != conformance.Pass {
				t.Fatalf("%s\n%s", c.Outcome, c.Detail)
			}
		})
	}
}
