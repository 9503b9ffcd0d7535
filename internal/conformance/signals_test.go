package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// referenceURLAttributes is the URL attribute set the signals were first
// measured over.
var referenceURLAttributes = map[string]bool{
	"href": true, "src": true, "action": true, "formaction": true,
	"data": true, "poster": true, "cite": true, "background": true,
	"longdesc": true, "usemap": true, "manifest": true, "ping": true,
	"srcset": true, "icon": true, "dynsrc": true, "lowsrc": true,
}

// referenceSignals computes a page's signals the way the checker first
// did, independently of the rules: every start tag of a recording parse
// folded in on its own.
func referenceSignals(res *htmlparse.Result) core.Signals {
	var s core.Signals
	for _, t := range res.Tokens {
		if t.Type != htmlparse.StartTagToken {
			continue
		}
		switch t.Data {
		case "math":
			s.UsesMath = true
		case "svg":
			s.UsesSVG = true
		}
		hasNonce := false
		hasScriptStr := false
		for _, a := range t.Attr {
			if referenceURLAttributes[a.Name] && strings.ContainsRune(a.RawValue, '\n') {
				s.NewlineInURL = true
				if strings.ContainsRune(a.RawValue, '<') {
					s.NewlineAndLtInURL = true
				}
			}
			if strings.Contains(strings.ToLower(a.RawValue), "<script") {
				s.ScriptInAttribute = true
				hasScriptStr = true
			}
			if a.Name == "nonce" {
				hasNonce = true
			}
		}
		if t.Data == "script" && hasNonce && hasScriptStr {
			s.NonceScriptAffected = true
		}
	}
	return s
}

// signalsMatchReference checks that the full checker and a one-rule
// checker without DE3_1 or DE3_2 both report the reference signals for
// input, and returns them. Input outside the UTF-8 domain is skipped.
func signalsMatchReference(input []byte) (core.Signals, error) {
	res, err := htmlparse.Parse(input)
	if err != nil {
		return core.Signals{}, nil
	}
	want := referenceSignals(res)
	for _, c := range []*core.Checker{core.NewChecker(), core.NewChecker("FB1")} {
		rep, err := c.Check(input)
		if err != nil {
			return want, err
		}
		if rep.Signals != want {
			return want, fmt.Errorf("%d-rule checker: signals %+v, reference %+v", len(c.Rules()), rep.Signals, want)
		}
	}
	return want, nil
}

// TestSignalsMatchReference holds the checker's signals, with the full
// catalogue and with FB1 alone, to the reference over the checked-in
// corpus, every page of the eight seed-29 snapshots and the fix corpus,
// cases and whole files.
func TestSignalsMatchReference(t *testing.T) {
	var pages []snapshotPage
	forEachCorpusCase(t, func(id string, input []byte) {
		pages = append(pages, snapshotPage{id, input})
	})
	g := corpus.New(corpus.Config{Seed: 29, Domains: 150, MaxPages: 4})
	for _, snap := range corpus.Snapshots {
		for _, d := range g.Universe() {
			if !g.Succeeds(d, snap) {
				continue
			}
			for i := 0; i < g.PageCount(d, snap); i++ {
				pages = append(pages, snapshotPage{fmt.Sprintf("%v %s page %d", snap, d, i), g.PageHTML(d, snap, i)})
			}
		}
	}
	pages = append(pages, fixCorpusPages(t)...)
	files, err := filepath.Glob(filepath.Join("..", "autofix", "testdata", "*.fix"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, snapshotPage{path, raw})
	}
	// The two rule-outcome signals must each be set on some pages, or
	// the comparison would not tell the runs' hits from false.
	var dangling, script int
	for _, p := range pages {
		s, err := signalsMatchReference(p.body)
		if err != nil {
			t.Errorf("%s: %v", p.id, err)
		}
		if s.NewlineAndLtInURL {
			dangling++
		}
		if s.ScriptInAttribute {
			script++
		}
	}
	t.Logf("%d pages: NewlineAndLtInURL on %d, ScriptInAttribute on %d", len(pages), dangling, script)
	if len(pages) < 3000 || dangling < 10 || script < 10 {
		t.Fatalf("compared %d pages, NewlineAndLtInURL on %d, ScriptInAttribute on %d", len(pages), dangling, script)
	}
}
