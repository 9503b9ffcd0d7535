package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// positionDigestFile holds the SHA-256 of every printed position the
// checker, the parser and the repair engine produce over the pinned
// inputs (see TestPositionDigest).
const positionDigestFile = "testdata/position_digest.sha256"

// fixCorpusPages returns the input of every golden fix-corpus case.
func fixCorpusPages(t *testing.T) []snapshotPage {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "autofix", "testdata", "*.fix"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fix corpus missing: %v", err)
	}
	var pages []snapshotPage
	for _, path := range files {
		cases, err := autofix.ParseFixFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			pages = append(pages, snapshotPage{cases[i].ID(), []byte(cases[i].Data)})
		}
	}
	return pages
}

// TestPositionDigest pins every position the program prints: over the
// conformance corpus, the seed-29 snapshot and the fix corpus, it hashes
// each finding of Checker.Check (rule, offset, line, col, evidence), each
// parse error of Parse (code, offset, line, col) and each fix of
// autofix.Repair (rule, offset, line, col). A change to how positions are
// stored or resolved must leave the digest as it is.
func TestPositionDigest(t *testing.T) {
	var pages []snapshotPage
	forEachCorpusCase(t, func(id string, input []byte) {
		pages = append(pages, snapshotPage{id, input})
	})
	pages = append(pages, snapshotPages()...)
	pages = append(pages, fixCorpusPages(t)...)

	h := sha256.New()
	checker := core.NewChecker()
	var findings, errs, fixes int
	for _, p := range pages {
		fmt.Fprintf(h, "page %s\n", p.id)
		rep, err := checker.Check(p.body)
		if err != nil {
			fmt.Fprintf(h, "check error %v\n", err)
			continue
		}
		for _, f := range rep.Findings {
			fmt.Fprintf(h, "finding %s %s %q\n", f.RuleID, printed(f.Pos), f.Evidence)
		}
		findings += len(rep.Findings)
		res, err := htmlparse.Parse(p.body)
		if err != nil {
			t.Fatalf("%s: Check accepted what Parse rejects: %v", p.id, err)
		}
		pos := make([]htmlparse.Position, len(res.Errors))
		for i, e := range res.Errors {
			pos[i].Offset = e.Pos
		}
		htmlparse.ResolvePositions(res.Input, pos, func(p *htmlparse.Position) *htmlparse.Position { return p })
		for i, e := range res.Errors {
			fmt.Fprintf(h, "error %s %s\n", e.Code, printed(pos[i]))
		}
		errs += len(res.Errors)
		r, err := autofix.Repair(p.body)
		if err != nil {
			t.Fatalf("%s: repair rejected the page: %v", p.id, err)
		}
		for _, f := range r.Applied {
			fmt.Fprintf(h, "fix %s %s\n", f.RuleID, printed(f.Pos))
		}
		fixes += len(r.Applied)
	}
	if findings == 0 || errs == 0 || fixes == 0 {
		t.Fatalf("vacuous digest: %d findings, %d parse errors, %d fixes", findings, errs, fixes)
	}
	checkDigest(t, h, positionDigestFile)
	t.Logf("%d pages: %d findings, %d parse errors, %d fixes", len(pages), findings, errs, fixes)
}

// printed renders a position as offset, line and column.
func printed(p htmlparse.Position) string {
	return fmt.Sprintf("@%d %d:%d", p.Offset, p.Line, p.Col)
}

// checkDigest compares h's sum with the hex digest checked in at path.
func checkDigest(t *testing.T, h hash.Hash, path string) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (digest is %s)", path, err, got)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("position digest changed:\n got  %s\n want %s (%s)", got, w, path)
	}
}
