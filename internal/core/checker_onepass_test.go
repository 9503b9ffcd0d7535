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
