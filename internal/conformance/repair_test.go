package conformance

import (
	"bytes"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hvscan/hvscan/internal/autofix"
)

// fixSeeds are repair-shaped starting points for the two fix invariants:
// documents covering each strategy family, the Unfixable manifest case,
// strategy-free remainders, and serialization-surfaced convergence.
var fixSeeds = []string{
	`<!DOCTYPE html><html><head><title>t</title></head><body><a href="/x"title="t">x</a></body></html>`,
	`<!DOCTYPE html><html><head><title>t</title></head><body><img/src="x"/alt="y"></body></html>`,
	`<!DOCTYPE html><html><head><title>t</title></head><body><div id=a id=b>x</div></body></html>`,
	`<!DOCTYPE html><html><head><title>t</title></head><body><meta http-equiv="refresh" content="0"><p>x</p></body></html>`,
	`<!DOCTYPE html><html><head><title>t</title></head><body><base href="/b/"><p>x</p></body></html>`,
	`<!DOCTYPE html><html><head><base href="/a/"><base href="/b/"><title>t</title></head><body>x</body></html>`,
	`<!DOCTYPE html><html><head><link rel="stylesheet" href="/s.css"><base href="/b/"></head><body>x</body></html>`,
	`<!DOCTYPE html><html manifest="app.appcache"><head><base href="/b/"><title>t</title></head><body>x</body></html>`,
	"<!DOCTYPE html><html><head><title>t</title></head><body><img src=\"/x?a=1\nrest <b>leak\" alt=\"a\"></body></html>",
	"<!DOCTYPE html><html><head><title>t</title></head><body><a href=\"/x\" target=\"w\nleak\">x</a></body></html>",
	`<!DOCTYPE html><html><head><title>t</title></head><body><img src="/x?q=&#10;s &lt;b&gt;" alt="a" id=x id=y></body></html>`,
	`<!DOCTYPE html><html><head><title>t</title></head><body><img src="/i.png" alt="x<script n"></body></html>`,
	`<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>`,
}

func fixInvariantInputs() []string {
	return append(append([]string{}, fixSeeds...), metamorphicSeeds...)
}

func TestFixIdempotenceSeeds(t *testing.T) {
	skipped := 0
	for _, s := range fixInvariantInputs() {
		skip, err := FixIdempotence([]byte(s))
		if err != nil {
			t.Errorf("%v", err)
		}
		if skip {
			skipped++
		}
	}
	if skipped == len(fixInvariantInputs()) {
		t.Fatal("every seed skipped; the repair domain check is broken")
	}
}

func TestFixMonotonicitySeeds(t *testing.T) {
	skipped := 0
	for _, s := range fixInvariantInputs() {
		skip, err := FixMonotonicity([]byte(s))
		if err != nil {
			t.Errorf("%v", err)
		}
		if skip {
			skipped++
		}
	}
	if skipped == len(fixInvariantInputs()) {
		t.Fatal("every seed skipped; the repair domain check is broken")
	}
}

func FuzzFixIdempotence(f *testing.F) {
	for _, s := range fixInvariantInputs() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if _, err := FixIdempotence(input); err != nil {
			t.Error(err)
		}
	})
}

func FuzzFixMonotonicity(f *testing.F) {
	for _, s := range fixInvariantInputs() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if _, err := FixMonotonicity(input); err != nil {
			t.Error(err)
		}
	})
}

// TestRepairedCorpusDifferential runs the full conformance corpus —
// every tree-construction and tokenizer case — through the repair engine
// and demands that every repaired page still satisfies the parser's own
// invariants: render→reparse is a fixpoint on it, and both fix
// invariants hold for the original case. A repair that produced bytes outside those
// invariants' domain would mean the engine can emit documents our own
// pipeline cannot re-check consistently.
func TestRepairedCorpusDifferential(t *testing.T) {
	type page struct {
		id   string
		data []byte
	}
	var pages []page
	var datFiles []string
	// The same two tree corpora the hvconform gate runs.
	for _, dir := range []string{
		filepath.Join("testdata", "tree-construction"),
		filepath.Join("..", "htmlparse", "testdata", "tree-construction"),
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.dat"))
		if err != nil {
			t.Fatal(err)
		}
		datFiles = append(datFiles, files...)
	}
	for _, path := range datFiles {
		cases, err := ParseDatFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			pages = append(pages, page{cases[i].ID(), []byte(cases[i].Data)})
		}
	}
	testFiles, err := filepath.Glob(filepath.Join("testdata", "tokenizer", "*.test"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range testFiles {
		cases, err := ParseTestFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			pages = append(pages, page{cases[i].ID(), []byte(cases[i].Input)})
		}
	}
	if len(datFiles) == 0 || len(testFiles) == 0 {
		t.Fatal("conformance fixtures missing")
	}

	repaired, fixpointSkips := 0, 0
	for _, p := range pages {
		r, err := autofix.Repair(p.data)
		if err != nil {
			t.Errorf("%s: repair rejected corpus input: %v", p.id, err)
			continue
		}
		if len(r.Applied) > 0 {
			repaired++
		}
		if skip, err := RenderParseFixpoint(r.Output); err != nil {
			t.Errorf("%s: repaired output breaks render→reparse fixpoint: %v", p.id, err)
		} else if skip {
			fixpointSkips++
		}
		if _, err := FixIdempotence(p.data); err != nil {
			t.Errorf("%s: %v", p.id, err)
		}
		if _, err := FixMonotonicity(p.data); err != nil {
			t.Errorf("%s: %v", p.id, err)
		}
	}
	if len(pages) < 350 {
		t.Errorf("conformance corpus shrank to %d cases, want at least 350", len(pages))
	}
	if repaired == 0 {
		t.Error("no corpus case produced an applied fix; the differential is vacuous")
	}
	t.Logf("differential over %d cases: %d with applied fixes, %d fixpoint skips",
		len(pages), repaired, fixpointSkips)
}

// TestRepairInvariantsOnSnapshot holds realistic pages — every page of
// the fixed-seed synthetic snapshot — to the same invariants as
// TestRepairedCorpusDifferential: render→reparse is a fixpoint on the
// page and on its repaired output, and both fix invariants hold. A
// skipped check proves nothing, so the test also requires that most
// pages are actually checked.
func TestRepairInvariantsOnSnapshot(t *testing.T) {
	pages := snapshotPages()
	skips := 0
	for _, p := range pages {
		r, err := autofix.Repair(p.body)
		if err != nil {
			t.Fatalf("%s: repair rejected the page: %v", p.id, err)
		}
		for _, check := range []struct {
			name string
			run  func([]byte) (bool, error)
			in   []byte
		}{
			{"render→reparse fixpoint", RenderParseFixpoint, p.body},
			{"render→reparse fixpoint of the repaired page", RenderParseFixpoint, r.Output},
			{"fix idempotence", FixIdempotence, p.body},
			{"fix monotonicity", FixMonotonicity, p.body},
		} {
			skip, err := check.run(check.in)
			if err != nil {
				t.Errorf("%s: %s: %v", p.id, check.name, err)
			}
			if skip {
				skips++
			}
		}
	}
	if len(pages) < 200 {
		t.Fatalf("checked only %d pages", len(pages))
	}
	if skips > len(pages) {
		t.Fatalf("%d of %d checks skipped", skips, 4*len(pages))
	}
	t.Logf("%d pages, %d skipped checks", len(pages), skips)
}

// TestRepairABAOnSnapshot repairs each pair of consecutive pages of the
// snapshot as A, then B, then A again on one goroutine, so B's rounds
// build their trees in the node slabs A's rounds gave back to the pooled
// parser and the second A's in B's. The second repair of A must equal the
// first in everything a caller sees.
func TestRepairABAOnSnapshot(t *testing.T) {
	pages := snapshotPages()
	for i := 1; i < len(pages); i++ {
		a, b := pages[i-1], pages[i]
		first, err := autofix.Repair(a.body)
		if err != nil {
			t.Fatalf("%s: %v", a.id, err)
		}
		if _, err := autofix.Repair(b.body); err != nil {
			t.Fatalf("%s: %v", b.id, err)
		}
		again, err := autofix.Repair(a.body)
		if err != nil {
			t.Fatalf("%s: %v", a.id, err)
		}
		switch {
		case !bytes.Equal(first.Output, again.Output):
			t.Fatalf("%s after %s: Output differs:\n %q\n %q", a.id, b.id, first.Output, again.Output)
		case first.Outcome() != again.Outcome():
			t.Fatalf("%s after %s: Outcome %s, then %s", a.id, b.id, first.Outcome(), again.Outcome())
		case !slices.Equal(first.Applied, again.Applied):
			t.Fatalf("%s after %s: Applied differs:\n %v\n %v", a.id, b.id, first.Applied, again.Applied)
		case !slices.Equal(first.Unfixable, again.Unfixable):
			t.Fatalf("%s after %s: Unfixable differs:\n %v\n %v", a.id, b.id, first.Unfixable, again.Unfixable)
		case !maps.Equal(first.RemainingHits, again.RemainingHits):
			t.Fatalf("%s after %s: RemainingHits differ:\n %v\n %v", a.id, b.id, first.RemainingHits, again.RemainingHits)
		}
	}
	if len(pages) < 200 {
		t.Fatalf("repaired only %d pages", len(pages))
	}
}
