package conformance

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// diffReports reports the first difference between two reports, finding
// by finding, or "" when they agree on findings, rule hits and signals.
func diffReports(a, b *core.Report) string {
	if len(a.Findings) != len(b.Findings) {
		return fmt.Sprintf("finding counts %d vs %d:\n %v\n %v", len(a.Findings), len(b.Findings), a.Findings, b.Findings)
	}
	for i := range a.Findings {
		if a.Findings[i] != b.Findings[i] {
			return fmt.Sprintf("finding %d:\n %v\n %v", i, a.Findings[i], b.Findings[i])
		}
	}
	if d := diffRuleHits(a.RuleHits, b.RuleHits); d != "" {
		return "rule hits:\n" + d
	}
	if a.Signals != b.Signals {
		return fmt.Sprintf("signals:\n %+v\n %+v", a.Signals, b.Signals)
	}
	return ""
}

// onePassSeeds extends the shared metamorphic seeds with the constructs
// where the tokenizer's content model depends on the tree: raw text in
// and out of foreign content, integration-point islands, CDATA
// permission, breakouts, and the suppressing insertion modes.
var onePassSeeds = []string{
	"<svg><title>a<b>c</title></svg>",
	"<svg><script>var a = 1 < 2;</script></svg>",
	"<svg><![CDATA[<b>raw</b>]]></svg>",
	"<svg><foreignObject><style>p{}</style></foreignObject></svg>",
	"<svg><foreignObject><div><svg><title>x</title></svg></div></foreignObject></svg>",
	"<math><mi><script>1</script></mi></math>",
	"<math><annotation-xml encoding='text/html'><textarea><p></textarea></annotation-xml></math>",
	"<math><annotation-xml encoding='x'><textarea><p></textarea></annotation-xml></math>",
	"<svg><p><style>x</style>",
	"<svg><font color=red><style>x</style>",
	"<title/>text<b a=1 a=2>",
	"<select><script>alert(1)</script></select>",
	"<select><title>x</title><img src=a onerror=b>",
	"<select><textarea><p></textarea>",
	"<select><input><title>x</title>",
	"<frameset><noframes><p></noframes></frameset>",
	"<svg><desc><img/src=x/onerror=y></desc></svg>",
	"<template><style>x</style></template>",
	"<svg></p><style>x</style>",
	"<p><svg></p><style>x</style>",
	// A dangling URL and "<script" in a value: the signals that are DE3_1's
	// and DE3_2's outcomes, which a checker without those rules still sets.
	"<img src='a\n<b>'><p title=\"x<SCRIPT y\">",
	// After-head and in-body DM1/DM2_1 events and a base in the tree hold
	// the event and element hooks to the replay path, in order.
	"<!DOCTYPE html><html><head><title>t</title></head>\n<meta http-equiv=\"refresh\" content=\"5\">\n" +
		"<body><p>x</p>\n<meta http-equiv=\"set-cookie\" content=\"a=b\">\n<base href=\"/a/\"></body>",
}

// onePassAgreement checks Check ≡ CheckTree ≡ CheckParsed(Parse) for
// the full catalogue, that CheckTree's Result records nothing, and that
// a checker of FB1 alone reports the full checker's signals; input
// outside the UTF-8 domain must be rejected by both parses. It holds on
// every input: all three run the same parser.
func onePassAgreement(input []byte) error {
	full := core.NewChecker()
	oneRep, err := full.Check(input)
	res, perr := htmlparse.Parse(input)
	if (err == nil) != (perr == nil) {
		return fmt.Errorf("UTF-8 domain disagreement for %q: Check %v, Parse %v", input, err, perr)
	}
	if err != nil {
		return nil
	}
	if d := diffReports(oneRep, full.CheckParsed(&core.Page{Result: res})); d != "" {
		return fmt.Errorf("Check vs CheckParsed(Parse) for %q: %s", input, d)
	}
	var treeRep *core.Report
	recorded := false
	if err := full.CheckTree(context.Background(), input, 0, func(res *htmlparse.Result, r *core.Report) {
		treeRep = r
		recorded = res.Errors != nil || res.Events != nil || res.Tokens != nil
	}); err != nil {
		return err
	}
	if recorded {
		return fmt.Errorf("CheckTree's Result of %.80q records errors, events or tokens", input)
	}
	if d := diffReports(oneRep, treeRep); d != "" {
		return fmt.Errorf("Check vs CheckTree for %q: %s", input, d)
	}
	fb1, err := fb1Checker.Check(input)
	if err != nil {
		return err
	}
	if fb1.Signals != oneRep.Signals {
		return fmt.Errorf("signals of %q: FB1 checker %+v, full checker %+v", input, fb1.Signals, oneRep.Signals)
	}
	return nil
}

// fb1Checker runs FB1 alone: the page signals must not depend on which
// rules a checker reports.
var fb1Checker = core.NewChecker("FB1")

// scopedAgreement checks a, then b, then a again with Check on one
// goroutine — each check builds its tree in the node slabs the one
// before gave back to the pooled parser — and holds every report to
// CheckTree's, finding for finding. Input outside the UTF-8 domain is
// skipped.
func scopedAgreement(a, b []byte) error {
	full := core.NewChecker()
	docs := [][]byte{a, b, a}
	want := make([]*core.Report, len(docs))
	for i, d := range docs {
		var rep *core.Report
		err := full.CheckTree(context.Background(), d, 0, func(_ *htmlparse.Result, r *core.Report) { rep = r })
		if err == htmlparse.ErrNotUTF8 {
			return nil
		}
		if err != nil {
			return err
		}
		want[i] = rep
	}
	for i, d := range docs {
		got, err := full.Check(d)
		if err != nil {
			return err
		}
		if diff := diffReports(got, want[i]); diff != "" {
			return fmt.Errorf("A/B/A check %d (A=%q, B=%q): scoped Check vs CheckTree: %s", i, a, b, diff)
		}
	}
	return nil
}

// TestOnePassAgreementOnCorpus runs onePassAgreement over every
// tree-construction and tokenizer case of the checked-in corpus, and
// scopedAgreement over every pair of consecutive cases.
func TestOnePassAgreementOnCorpus(t *testing.T) {
	var prev []byte
	forEachCorpusCase(t, func(id string, input []byte) {
		if err := onePassAgreement(input); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if prev != nil {
			if err := scopedAgreement(prev, input); err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}
		prev = input
	})
}

// forEachCorpusCase calls f with the ID and input of every
// tree-construction and tokenizer case of the checked-in corpus, and
// fails t if the corpus has shrunk below 300 cases.
func forEachCorpusCase(t *testing.T, f func(id string, input []byte)) {
	t.Helper()
	n := 0
	for _, dir := range []string{
		"testdata/tree-construction",
		filepath.Join("..", "htmlparse", "testdata", "tree-construction"),
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.dat"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			cases, err := ParseDatFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cases {
				f(cases[i].ID(), []byte(cases[i].Data))
				n++
			}
		}
	}
	tokFiles, err := filepath.Glob(filepath.Join("testdata", "tokenizer", "*.test"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tokFiles {
		cases, err := ParseTestFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			f(cases[i].ID(), []byte(cases[i].Input))
			n++
		}
	}
	if n < 300 {
		t.Fatalf("corpus shrank to %d cases", n)
	}
}

// TestOnePassAgreementSeeds runs onePassAgreement on each seed whose
// tokenizer content model depends on the tree.
func TestOnePassAgreementSeeds(t *testing.T) {
	for _, s := range onePassSeeds {
		if err := onePassAgreement([]byte(s)); err != nil {
			t.Error(err)
		}
	}
}

// snapshotPage is one page of the fixed-seed synthetic snapshot.
type snapshotPage struct {
	id   string
	body []byte
}

// snapshotPages returns every page of a fixed-seed synthetic snapshot,
// the pages TestOnePassMatchesReplayOnSnapshot (internal/core) checks one
// by one.
func snapshotPages() []snapshotPage {
	g := corpus.New(corpus.Config{Seed: 29, Domains: 150, MaxPages: 4})
	snap := corpus.Snapshots[6]
	var pages []snapshotPage
	for _, d := range g.Universe() {
		if !g.Succeeds(d, snap) {
			continue
		}
		for i := 0; i < g.PageCount(d, snap); i++ {
			pages = append(pages, snapshotPage{fmt.Sprintf("%s page %d", d, i), g.PageHTML(d, snap, i)})
		}
	}
	return pages
}

// TestScopedCheckABAOnSnapshot runs scopedAgreement over every pair of
// consecutive pages of the snapshot.
func TestScopedCheckABAOnSnapshot(t *testing.T) {
	pages := snapshotPages()
	for i := 1; i < len(pages); i++ {
		if err := scopedAgreement(pages[i-1].body, pages[i].body); err != nil {
			t.Fatalf("%s: %v", pages[i].id, err)
		}
	}
	if len(pages) < 200 {
		t.Fatalf("compared only %d pages", len(pages))
	}
}

// TestRecordedTraceMatchesHook: on foreign content, where the tree
// builder renames attributes, the DE3_2 evidence keeps the tokenizer's
// attribute name in every mode — the recorded trace may not pick up the
// tree's rename.
func TestRecordedTraceMatchesHook(t *testing.T) {
	for in, evidence := range map[string]string{
		`<math definitionurl="a<script"></math>`:      "<math definitionurl=a<script",
		`<svg><path attributename="x<script"/></svg>`: "<path attributename=x<script",
	} {
		if err := onePassAgreement([]byte(in)); err != nil {
			t.Error(err)
		}
		res, err := htmlparse.Parse([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		rep := core.NewChecker().CheckParsed(&core.Page{Result: res})
		var got []string
		for _, f := range rep.Findings {
			if f.RuleID == "DE3_2" {
				got = append(got, f.Evidence)
			}
		}
		if len(got) != 1 || got[0] != evidence {
			t.Errorf("%s: DE3_2 evidence %q, want %q", in, got, evidence)
		}
	}
}

// FuzzOnePassAgreement holds the one-pass check to CheckTree and the
// replay path, and the scoped parse's observer to Parse's record, on each
// of two inputs, and the scoped check to CheckTree over A, B, A on one
// goroutine.
func FuzzOnePassAgreement(f *testing.F) {
	var seeds []string
	seeds = append(seeds, metamorphicSeeds...)
	seeds = append(seeds, onePassSeeds...)
	for i, s := range seeds {
		f.Add([]byte(s), []byte(seeds[(i+1)%len(seeds)]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, input := range [][]byte{a, b} {
			if err := onePassAgreement(input); err != nil {
				t.Fatal(err)
			}
			if err := observerAgreement(input); err != nil {
				t.Fatal(err)
			}
		}
		if err := scopedAgreement(a, b); err != nil {
			t.Fatal(err)
		}
	})
}
