package autofix

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
)

func TestStrategyRuleIDs(t *testing.T) {
	want := []string{"DE3_1", "DE3_3", "DM1", "DM2_1", "DM2_2", "DM2_3", "DM3", "FB1", "FB2"}
	got := StrategyRuleIDs()
	if len(got) != len(want) {
		t.Fatalf("strategies = %v", got)
	}
	seen := map[string]bool{}
	for _, id := range got {
		seen[id] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("missing strategy for %s", id)
		}
	}
}

// TestRepairDanglingMarkup: the DE3_1/DE3_3 tree-level strategies truncate
// the absorbed markup at the first newline and the result verifies clean.
func TestRepairDanglingMarkup(t *testing.T) {
	cases := []struct {
		name, in, rule, gone string
	}{
		{"DE3_1", "<!DOCTYPE html><html><head><title>t</title></head><body>" +
			"<img src=\"/x?q=\nsecret <b>stolen</b>\" alt=\"a\"></body></html>",
			"DE3_1", "secret"},
		{"DE3_3", "<!DOCTYPE html><html><head><title>t</title></head><body>" +
			"<a href=\"/x\" target=\"win\nleaked-content\">x</a></body></html>",
			"DE3_3", "leaked-content"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !check(t, []byte(tc.in)).Violated(tc.rule) {
				t.Fatalf("precondition: %s not present in input", tc.rule)
			}
			r := repair(t, tc.in)
			if got := r.Outcome(); got != OutcomeFixed {
				t.Fatalf("outcome = %s, unfixable = %v", got, r.Unfixable)
			}
			found := false
			for _, f := range r.Applied {
				if f.RuleID == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s fix recorded; applied = %v", tc.rule, r.Applied)
			}
			if check(t, r.Output).Violated(tc.rule) {
				t.Fatalf("%s survives repair:\n%s", tc.rule, r.Output)
			}
			if strings.Contains(string(r.Output), tc.gone) {
				t.Fatalf("absorbed markup %q still present:\n%s", tc.gone, r.Output)
			}
		})
	}
}

// TestRepairConvergesOnSerializationSurfacedViolation: an entity-encoded
// newline in a URL attribute trips no rule on the input (the raw value has
// no literal newline), but serialization decodes it — the first rendered
// candidate violates DE3_1. The convergence loop must absorb that in a
// second round rather than emit the regressed candidate.
func TestRepairConvergesOnSerializationSurfacedViolation(t *testing.T) {
	in := "<!DOCTYPE html><html><head><title>t</title></head><body>" +
		`<div id="a" id="b">x</div><img src="/x?q=&#10;s &lt;b&gt;" alt="a"></body></html>`
	rep := check(t, []byte(in))
	if rep.Violated("DE3_1") {
		t.Fatal("precondition: input must not violate DE3_1 yet")
	}
	if !rep.Violated("DM3") {
		t.Fatal("precondition: input must violate DM3")
	}
	r := repair(t, in)
	if got := r.Outcome(); got != OutcomeFixed {
		t.Fatalf("outcome = %s, unfixable = %v", got, r.Unfixable)
	}
	if r.Rounds < 2 {
		t.Fatalf("expected a second convergence round, got %d", r.Rounds)
	}
	var ids []string
	for _, f := range r.Applied {
		ids = append(ids, f.RuleID)
	}
	if !contains(strings.Join(ids, ","), "DE3_1") {
		t.Fatalf("second round did not repair the surfaced DE3_1: %v", r.Applied)
	}
	out := check(t, r.Output)
	if out.HasViolation() {
		t.Fatalf("violations remain: %v", out.ViolatedIDs())
	}
}

// TestRepairUnfixableManifestBase: a manifest attribute on the html
// element consumes a URL before head exists, so no base placement can
// satisfy DM2_3. The engine must return the input untouched with an
// explicit Unfixable, not loop or emit a half-fixed candidate.
func TestRepairUnfixableManifestBase(t *testing.T) {
	in := `<!DOCTYPE html><html manifest="app.appcache"><head><base href="/b/">` +
		`<title>t</title></head><body><p>x</p></body></html>`
	if !check(t, []byte(in)).Violated("DM2_3") {
		t.Fatal("precondition: DM2_3 not present in input")
	}
	r := repair(t, in)
	if got := r.Outcome(); got != OutcomeUnfixable {
		t.Fatalf("outcome = %s, want unfixable", got)
	}
	if !bytes.Equal(r.Output, []byte(in)) {
		t.Fatalf("unfixable result must return the original input:\n%s", r.Output)
	}
	if len(r.Applied) != 0 {
		t.Fatalf("unfixable result must not report applied fixes: %v", r.Applied)
	}
	found := false
	for _, u := range r.Unfixable {
		if u.RuleID == "DM2_3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("DM2_3 missing from unfixable list: %v", r.Unfixable)
	}
}

// withStrategies swaps the registry for the duration of one test so the
// verification machinery can be exercised against a misbehaving strategy.
func withStrategies(t *testing.T, s []Strategy) {
	t.Helper()
	old := strategies
	strategies = s
	t.Cleanup(func() { strategies = old })
}

// TestRepairRejectsRegressingStrategy: a strategy whose edit introduces a
// violation of a rule outside the registry must be caught by the re-parse
// verification and the whole repair discarded.
func TestRepairRejectsRegressingStrategy(t *testing.T) {
	withStrategies(t, []Strategy{{"DM3", func(tx *Tx) {
		// Claims to fix DM3 but plants a nonce-stealing pattern (DE3_2,
		// no strategy) in an attribute on the way out.
		tx.Res.Doc.Walk(func(n *htmlparse.Node) bool {
			if n.IsElement("div") {
				for i := range n.Attr {
					n.Attr[i].Value = "x<script y"
					n.Attr[i].RawValue = n.Attr[i].Value
				}
			}
			return true
		})
		tx.Record("pretended to fix a duplicate attribute", 0)
	}}})
	in := `<!DOCTYPE html><html><head><title>t</title></head><body><div id="a" id="b">x</div></body></html>`
	r := repair(t, in)
	if got := r.Outcome(); got != OutcomeUnfixable {
		t.Fatalf("outcome = %s, want unfixable", got)
	}
	if !bytes.Equal(r.Output, []byte(in)) {
		t.Fatalf("rejected repair must return the original input:\n%s", r.Output)
	}
	if len(r.Applied) != 0 {
		t.Fatalf("rejected repair must not report applied fixes: %v", r.Applied)
	}
	if len(r.Unfixable) == 0 || r.Unfixable[0].RuleID != "DE3_2" {
		t.Fatalf("unfixable should name the introduced rule: %v", r.Unfixable)
	}
}

// TestRepairStalledStrategyUnfixable: a strategy that records nothing for
// a rule that keeps firing means no progress is possible; the engine must
// stop after one round, not burn the full budget.
func TestRepairStalledStrategyUnfixable(t *testing.T) {
	withStrategies(t, []Strategy{{"DE3_3", func(tx *Tx) {}}})
	in := "<!DOCTYPE html><html><head><title>t</title></head><body><a href=\"/x\" target=\"w\nleak\">x</a></body></html>"
	r := repair(t, in)
	if got := r.Outcome(); got != OutcomeUnfixable {
		t.Fatalf("outcome = %s, want unfixable", got)
	}
	if r.Rounds != 1 {
		t.Fatalf("stalled repair ran %d rounds, want 1", r.Rounds)
	}
}

// TestRepairOutcomes: the four outcome classes, including partial —
// violations outside the registry (a nonce-stealing DE3_2 pattern
// survives serialization verbatim) remain while the fixable ones clear.
func TestRepairOutcomes(t *testing.T) {
	cases := []struct {
		name, in string
		want     Outcome
	}{
		{"clean", `<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>`, OutcomeClean},
		{"fixed", `<!DOCTYPE html><html><head><title>t</title></head><body><a href="/x"title="t">x</a></body></html>`, OutcomeFixed},
		{"partial", `<!DOCTYPE html><html><head><title>t</title></head><body>` +
			`<a href="/x"title="t">x</a><img src="/i.png" alt="x<script n">` + `</body></html>`, OutcomePartial},
		{"unfixable", `<!DOCTYPE html><html manifest="a.appcache"><head><base href="/b/"><title>t</title></head><body><p>x</p></body></html>`, OutcomeUnfixable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := repair(t, tc.in)
			if got := r.Outcome(); got != tc.want {
				t.Fatalf("outcome = %s, want %s (unfixable=%v remaining=%v)",
					got, tc.want, r.Unfixable, r.RemainingHits)
			}
			if tc.want == OutcomeClean && !bytes.Equal(r.Output, []byte(tc.in)) {
				t.Fatal("clean outcome must be a byte-identical no-op")
			}
		})
	}
}

// TestRepairContextCancelled: cancellation is an operational error, not an
// Unfixable outcome.
func TestRepairContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RepairContext(ctx, []byte(`<!DOCTYPE html><html><head><title>t</title></head><body><div id="a" id="b">x</div></body></html>`), Options{})
	if err == nil {
		t.Fatal("expected a context error")
	}
}

// TestInstrumentCounts: applied == verified + rejected per rule, and page
// outcomes are counted.
func TestInstrumentCounts(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { metrics.Store(nil) })

	repair(t, `<!DOCTYPE html><html><head><title>t</title></head><body><div id="a" id="b">x</div></body></html>`)
	repair(t, `<!DOCTYPE html><html manifest="a.appcache"><head><link rel="x" href="/s.css"><base href="/b/"><title>t</title></head><body><p>x</p></body></html>`)

	m := metrics.Load()
	if got := m.pages[string(OutcomeFixed)].Value(); got != 1 {
		t.Errorf("pages{fixed} = %d, want 1", got)
	}
	if got := m.pages[string(OutcomeUnfixable)].Value(); got != 1 {
		t.Errorf("pages{unfixable} = %d, want 1", got)
	}
	for _, id := range StrategyRuleIDs() {
		applied := m.applied[id].Value()
		settled := m.verified[id].Value() + m.rejected[id].Value()
		if applied != settled {
			t.Errorf("%s: applied %d != verified+rejected %d", id, applied, settled)
		}
	}
	if m.applied["DM3"].Value() == 0 {
		t.Error("DM3 fix not counted as applied")
	}
	if m.rejected["DM2_3"].Value()+m.rejected["DM2_2"].Value() == 0 {
		t.Error("rejected fixes from the unfixable page not counted")
	}
}

// TestRepairConcurrent repairs the fix corpus from several goroutines at
// once. Every repair shares the engine's one catalogue checker, so each
// call must still get what a call alone gets, fix positions included.
func TestRepairConcurrent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.fix"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fix corpus missing: %v", err)
	}
	var inputs [][]byte
	for _, path := range files {
		cases, err := ParseFixFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			inputs = append(inputs, []byte(cases[i].Data))
		}
	}
	outcome := func(in []byte) string {
		r, err := Repair(in)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%q %v %+v %v", r.Output, r.Outcome(), r.Applied, r.Unfixable)
	}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = outcome(in)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range inputs {
				if got := outcome(in); got != want[i] {
					t.Errorf("case %d: concurrent repair %s, alone %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
