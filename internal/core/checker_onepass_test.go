package core

import (
	"reflect"
	"testing"

	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// TestOnePassMatchesReplayOnSnapshot: on every page of a fixed-seed
// synthetic snapshot, the one-pass Check (rules hooked into the parse)
// reports exactly what CheckParsed reports by replaying a recorded parse
// — same findings in the same order, same rule hits, same signals.
func TestOnePassMatchesReplayOnSnapshot(t *testing.T) {
	g := corpus.New(corpus.Config{Seed: 29, Domains: 150, MaxPages: 4})
	snap := corpus.Snapshots[6]
	c := NewChecker()
	pages, findings := 0, 0
	for _, d := range g.Universe() {
		if !g.Succeeds(d, snap) {
			continue
		}
		for i := 0; i < g.PageCount(d, snap); i++ {
			body := g.PageHTML(d, snap, i)
			one, err := c.Check(body)
			if err == htmlparse.ErrNotUTF8 {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := htmlparse.ParseReuse(body)
			if err != nil {
				t.Fatal(err)
			}
			replay := c.CheckParsed(&Page{Result: res})
			if !reflect.DeepEqual(one.Findings, replay.Findings) ||
				!reflect.DeepEqual(one.RuleHits, replay.RuleHits) || one.Signals != replay.Signals {
				t.Fatalf("%s page %d: one-pass %v %+v, replay %v %+v",
					d, i, one.Findings, one.Signals, replay.Findings, replay.Signals)
			}
			pages++
			findings += len(one.Findings)
		}
	}
	if pages < 200 || findings == 0 {
		t.Fatalf("compared only %d pages (%d findings)", pages, findings)
	}
}

// TestRuleWithEveryHook: a rule may set all four hooks, and each is fed
// exactly what a one-hook rule of its kind is fed, while the catalogue
// rules around it report as they do alone: the checker's per-kind hook
// lists hold more hooks than there are rules.
func TestRuleWithEveryHook(t *testing.T) {
	const doc = `<!DOCTYPE html><div a=1 a=2><base href=/x><p>x</div><base href=/y>`
	var tags, errs, events, elems int
	all := Rule{ID: "ALL", Stream: func() RuleStream {
		return RuleStream{
			Token:   func(*htmlparse.Token, func(Finding)) { tags++ },
			Error:   func(htmlparse.ParseError, func(Finding)) { errs++ },
			Event:   func(*htmlparse.TreeEvent, func(Finding)) { events++ },
			Element: func(n *htmlparse.Node, emit func(Finding)) { elems++ },
		}
	}}
	got, err := NewCheckerWith(append([]Rule{all}, Rules()...)...).Check([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewChecker().Check([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) || !reflect.DeepEqual(got.RuleHits, want.RuleHits) {
		t.Errorf("catalogue findings beside a four-hook rule:\n got  %v\n want %v", got.Findings, want.Findings)
	}
	res, err := htmlparse.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	wantElems := 0
	res.Doc.Walk(func(n *htmlparse.Node) bool {
		if n.Type == htmlparse.ElementNode {
			wantElems++
		}
		return true
	})
	if tags != len(res.Tokens) || errs != len(res.Errors) || events != len(res.Events) || elems != wantElems {
		t.Errorf("hooks saw %d tags, %d errors, %d events, %d elements; the parse has %d, %d, %d, %d",
			tags, errs, events, elems, len(res.Tokens), len(res.Errors), len(res.Events), wantElems)
	}
	if len(res.Errors) == 0 || len(res.Events) == 0 {
		t.Fatal("the document provokes no errors or events")
	}
}
