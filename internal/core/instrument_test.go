package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/hvscan/hvscan/internal/obs"
)

// TestCheckerInstrumented verifies the per-rule counters mirror the
// reports exactly, including under concurrent checking (the pipeline runs
// one checker across all workers).
func TestCheckerInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewChecker().Instrument(reg)

	docs := [][]byte{}
	want := make(map[string]uint64)
	for _, rc := range ruleCases() {
		docs = append(docs, rc.bad)
	}
	for _, d := range docs {
		rep, err := c.Check(d)
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range rep.RuleHits {
			want[id] += uint64(n)
		}
	}
	if len(want) == 0 {
		t.Fatal("no rule fired — instrumentation test is vacuous")
	}
	if got := reg.Counter("core_pages_checked_total").Value(); got != uint64(len(docs)) {
		t.Errorf("pages checked = %d, want %d", got, len(docs))
	}
	for id, n := range want {
		name := fmt.Sprintf("core_rule_hits_total{rule=%q}", id)
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}

	// Re-checking the same corpus concurrently must double every counter
	// without racing (run with -race).
	var wg sync.WaitGroup
	for _, d := range docs {
		wg.Add(1)
		go func(d []byte) {
			defer wg.Done()
			if _, err := c.Check(d); err != nil {
				t.Error(err)
			}
		}(d)
	}
	wg.Wait()
	if got := reg.Counter("core_pages_checked_total").Value(); got != uint64(2*len(docs)) {
		t.Errorf("pages checked after concurrent pass = %d, want %d", got, 2*len(docs))
	}
	for id, n := range want {
		name := fmt.Sprintf("core_rule_hits_total{rule=%q}", id)
		if got := reg.Counter(name).Value(); got != 2*n {
			t.Errorf("%s after concurrent pass = %d, want %d", name, got, 2*n)
		}
	}
}

// TestUninstrumentedCheckerHasNoCounters pins the nil-check fast path: a
// plain NewChecker must work without any registry.
func TestUninstrumentedCheckerHasNoCounters(t *testing.T) {
	c := NewChecker()
	rep, err := c.Check(wrap(`<p id=x id=y>dup</p>`))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
}

// TestSubsetCheckerSignalsUnreported: a checker of FB1 alone still sets
// the signals that are DE3_1's and DE3_2's outcomes, and those rules'
// runs reach no finding, rule hit or counter of its report.
func TestSubsetCheckerSignalsUnreported(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewChecker("FB1").Instrument(reg)
	rep, err := c.Check(wrap("<img src='https://e/?a=\n<b>'><iframe/srcdoc=\"<script>x()</script>\"></iframe>"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Signals.NewlineAndLtInURL || !rep.Signals.ScriptInAttribute {
		t.Fatalf("signals = %+v", rep.Signals)
	}
	for _, f := range rep.Findings {
		if f.RuleID != "FB1" {
			t.Errorf("unreported rule's finding in the report: %v", f)
		}
	}
	if len(rep.RuleHits) != 1 || rep.RuleHits["FB1"] != 1 {
		t.Errorf("rule hits = %v, want FB1 alone", rep.RuleHits)
	}
	for _, id := range []string{"DE3_1", "DE3_2"} {
		if got := reg.Counter(fmt.Sprintf("core_rule_hits_total{rule=%q}", id)).Value(); got != 0 {
			t.Errorf("%s counted %d hits", id, got)
		}
	}
	if len(c.Rules()) != 1 {
		t.Errorf("checker rules = %d, want FB1 alone", len(c.Rules()))
	}
}
