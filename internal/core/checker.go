package core

import (
	"context"
	"sort"
	"strings"

	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
)

// Report is the outcome of checking one page against the catalogue.
type Report struct {
	URL      string
	Findings []Finding
	// RuleHits maps rule ID to the number of findings for it.
	RuleHits map[string]int
	// Signals are the auxiliary per-page measurements of paper §4.2/§4.5
	// (mitigation overlap, math element usage).
	Signals Signals
}

// Signals captures page properties the paper's mitigation analysis (§4.5)
// and general statistics (§4.2) report alongside the violations.
type Signals struct {
	// NewlineInURL: some URL-valued attribute contains a raw newline
	// (West's 2017 measurement: 0.47% of page views).
	NewlineInURL bool
	// NewlineAndLtInURL: a URL contains both a newline and '<' — the
	// condition Chromium blocks since 2017.
	NewlineAndLtInURL bool
	// ScriptInAttribute: "<script" appears inside an attribute value — the
	// nonce-stealing mitigation trigger.
	ScriptInAttribute bool
	// NonceScriptAffected: a script element carries both a CSP nonce and
	// "<script" in an attribute, i.e. the mitigation would actually fire
	// (the paper found zero such elements).
	NonceScriptAffected bool
	// UsesMath: the page contains a math element (tracked because HF5_3
	// is so rare that the paper contrasts it with math adoption).
	UsesMath bool
	// UsesSVG: the page contains an svg element.
	UsesSVG bool
}

// Violated reports whether the given rule produced at least one finding.
func (r *Report) Violated(id string) bool { return r.RuleHits[id] > 0 }

// HasViolation reports whether any rule fired.
func (r *Report) HasViolation() bool { return len(r.Findings) > 0 }

// ViolatedIDs returns the sorted IDs of all rules that fired.
func (r *Report) ViolatedIDs() []string {
	ids := make([]string, 0, len(r.RuleHits))
	for id, n := range r.RuleHits {
		if n > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// OnlyAutoFixable reports whether every violation on the page belongs to
// the automatically repairable classes (paper §4.4: a site is "quickly
// fixable" if automation alone would clear it).
func (r *Report) OnlyAutoFixable() bool {
	if !r.HasViolation() {
		return false
	}
	for id := range r.RuleHits {
		rule, ok := RuleByID(id)
		if !ok || !rule.AutoFixable {
			return false
		}
	}
	return true
}

// Checker runs a set of rules over pages. The zero value is not usable;
// construct with NewChecker.
type Checker struct {
	rules []Rule
	// needTree records whether any configured rule needs the parse tree.
	// When false, Check routes through the constant-memory streaming path
	// and never builds a DOM (the two-phase design of ROADMAP item 5).
	needTree bool
	// hits, when instrumented, holds one counter per rule (parallel to
	// rules); pages counts every document checked. Both stay nil on an
	// uninstrumented checker, keeping the hot path a nil check.
	hits  []*obs.Counter
	pages *obs.Counter
}

func newChecker(rs []Rule) *Checker {
	c := &Checker{rules: rs}
	for _, r := range rs {
		if r.TreeRequired || r.Stream == nil {
			c.needTree = true
		}
	}
	return c
}

// NewChecker returns a checker over the full catalogue, or over the given
// subset if rule IDs are passed.
func NewChecker(ids ...string) *Checker {
	if len(ids) == 0 {
		return newChecker(Rules())
	}
	var rs []Rule
	for _, id := range ids {
		if r, ok := RuleByID(id); ok {
			rs = append(rs, r)
		}
	}
	return newChecker(rs)
}

// NewCheckerWith returns a checker over an explicit rule list —
// catalogue rules, custom rules, or a mix. The serving layer's fault
// tests use it to inject misbehaving rules; embedders use it to run
// house rules beside the catalogue.
func NewCheckerWith(rules ...Rule) *Checker {
	return newChecker(rules)
}

// NewStreamingChecker returns a checker restricted to rules decidable from
// the tokenizer alone (no tree construction). Used standalone for cheap
// scans and by the shared-parse ablation benchmark.
func NewStreamingChecker() *Checker {
	var rs []Rule
	for _, r := range Rules() {
		if !r.TreeRequired {
			rs = append(rs, r)
		}
	}
	return newChecker(rs)
}

// Rules returns the checker's rule set.
func (c *Checker) Rules() []Rule { return c.rules }

// NeedsTree reports whether any configured rule requires the parse
// tree. A false return means Check runs entirely on the constant-
// memory streaming path; serving layers use this to pick between
// CheckStreamContext and a depth-capped tree parse.
func (c *Checker) NeedsTree() bool { return c.needTree }

// Instrument registers per-rule hit counters (core_rule_hits_total,
// labelled by rule ID) and a checked-pages counter on reg, and returns the
// checker for chaining. The counters aggregate across every page the
// checker sees, so a metrics endpoint answers "which rules fire most"
// without waiting for the store to fill.
func (c *Checker) Instrument(reg *obs.Registry) *Checker {
	ids := make([]string, len(c.rules))
	for i, r := range c.rules {
		ids[i] = r.ID
	}
	byID := reg.CounterVec("core_rule_hits_total", "rule", ids...)
	c.hits = make([]*obs.Counter, len(c.rules))
	for i, r := range c.rules {
		c.hits[i] = byID[r.ID]
	}
	c.pages = reg.Counter("core_pages_checked_total")
	return c
}

// countHits records a page's rule outcomes on the instrumented counters.
func (c *Checker) countHits(rep *Report) {
	if c.pages == nil {
		return
	}
	c.pages.Inc()
	for i, r := range c.rules {
		if n := rep.RuleHits[r.ID]; n > 0 {
			c.hits[i].Add(uint64(n))
		}
	}
}

// pass is one document's run of the checker's rules: the live state of
// every hook rule (a rule with Stream), the findings each has emitted so
// far, and the page signals. Every mode feeds a pass the same inputs —
// each start and end tag in document order, then the parse errors — so
// hook rules and signals are computed by one piece of code whether the
// tags arrive live from the tree builder (CheckTree), replayed from a
// recorded trace (CheckParsed) or from the bare tokenizer (CheckStream).
type pass struct {
	c     *Checker
	rules []ruleRun // parallel to c.rules
	sig   Signals
}

// ruleRun is one rule's share of a pass: its hooks (zero for a rule
// without Stream), what they emitted, and the emit func they append with.
type ruleRun struct {
	RuleStream
	found []Finding
	emit  func(Finding)
}

func (c *Checker) newPass() *pass {
	ps := &pass{c: c, rules: make([]ruleRun, len(c.rules))}
	for i, r := range c.rules {
		if r.Stream == nil {
			continue
		}
		rr := &ps.rules[i]
		rr.RuleStream = r.Stream()
		rr.emit = func(f Finding) { rr.found = append(rr.found, f) }
	}
	return ps
}

// tag feeds one start or end tag to the signals and every token hook.
func (ps *pass) tag(t *htmlparse.Token) {
	if t.Type == htmlparse.StartTagToken {
		ps.sig.observe(t)
	}
	for i := range ps.rules {
		if rr := &ps.rules[i]; rr.Token != nil {
			rr.Token(t, rr.emit)
		}
	}
}

// errors feeds the document's parse errors, in order, to every error hook.
func (ps *pass) errors(errs []htmlparse.ParseError) {
	for _, e := range errs {
		for i := range ps.rules {
			if rr := &ps.rules[i]; rr.Error != nil {
				rr.Error(e, rr.emit)
			}
		}
	}
}

// report is the single report-assembly path of every mode: in catalogue
// order, a hook rule contributes what it emitted and any other rule runs
// its Check over p (skipped when p is nil: the stream path has no tree).
// It fills RuleHits, attaches the signals, and records the instrumented
// counters, so the modes cannot drift in how a Report is put together.
func (ps *pass) report(p *Page) *Report {
	c := ps.c
	rep := &Report{RuleHits: make(map[string]int, len(c.rules))}
	if p != nil {
		rep.URL = p.URL
	}
	for i, rule := range c.rules {
		fs := ps.rules[i].found
		if rule.Stream == nil && p != nil && rule.Check != nil {
			fs = rule.Check(p)
		}
		if len(fs) > 0 {
			rep.RuleHits[rule.ID] = len(fs)
			rep.Findings = append(rep.Findings, fs...)
		}
	}
	rep.Signals = ps.sig
	c.countHits(rep)
	return rep
}

// Check is CheckContext with no deadline and no depth cap.
func (c *Checker) Check(html []byte) (*Report, error) { return c.check(nil, html, 0) }

// CheckContext checks the document in one parse and keeps only the
// report. When a configured rule needs the tree, the check runs as in
// CheckTree inside htmlparse.ParseScoped, so the tree's node slabs go
// back to the pooled parser once the report is built; otherwise it takes
// the constant-memory CheckStreamContext path, which never builds a DOM
// (and so has no depth to cap). ctx bounds the check and a positive
// maxTreeDepth caps the open-element stack; on either abort the error is
// returned and there is no report. It returns htmlparse.ErrNotUTF8 for
// documents the pipeline must filter (paper §4.1).
func (c *Checker) CheckContext(ctx context.Context, html []byte, maxTreeDepth int) (*Report, error) {
	return c.check(ctx, html, maxTreeDepth)
}

// check is CheckContext with ctx nil for the uncancellable path.
func (c *Checker) check(ctx context.Context, html []byte, maxTreeDepth int) (*Report, error) {
	if !c.needTree {
		return c.CheckStreamContext(ctx, html)
	}
	ps := c.newPass()
	var rep *Report
	err := htmlparse.ParseScoped(ctx, html, htmlparse.Options{MaxTreeDepth: maxTreeDepth, OnTag: ps.tag}, func(res *htmlparse.Result) {
		rep = ps.finish(res)
	})
	return rep, err
}

// CheckTree parses html once and checks it during that parse. The
// parser's OnTag hook drives every hook rule and the signals tag by tag,
// so no token trace is recorded or replayed; the parse errors then go
// through the error hooks, and the remaining rules run over the finished
// Result, which is returned with the report (the repair engine edits its
// tree). ctx bounds the parse and a positive maxTreeDepth caps the
// open-element stack, as in htmlparse.ParseReuseContext; on either abort
// the error is returned and there is no Result or report. A caller that
// does not keep the Result uses CheckContext.
func (c *Checker) CheckTree(ctx context.Context, html []byte, maxTreeDepth int) (*htmlparse.Result, *Report, error) {
	ps := c.newPass()
	res, err := htmlparse.ParseReuseContext(ctx, html, htmlparse.Options{MaxTreeDepth: maxTreeDepth, OnTag: ps.tag})
	if err != nil {
		return nil, nil, err
	}
	return res, ps.finish(res), nil
}

// finish completes a pass whose tags the parse already fed live: the
// parse errors go through the error hooks, then the report is built.
func (ps *pass) finish(res *htmlparse.Result) *Report {
	ps.errors(res.Errors)
	return ps.report(&Page{Result: res})
}

// CheckParsed runs the rules over an already parsed page. The hook rules
// and the signals replay the page's recorded tag trace, so the page must
// come from a parse with htmlparse.Options.RecordTokens set (Parse,
// ParseReuse and ParseFragment* set it); without a trace they see no tags
// and report nothing.
func (c *Checker) CheckParsed(p *Page) *Report {
	ps := c.newPass()
	for i := range p.Tokens {
		ps.tag(&p.Tokens[i])
	}
	ps.errors(p.Errors)
	return ps.report(p)
}

// CheckStream tokenizes without tree construction and runs the streaming
// rule subset in O(1) token memory: no token slice is accumulated, and
// each rule holds constant per-document state. Tree-required rules in the
// checker's set are skipped.
func (c *Checker) CheckStream(html []byte) (*Report, error) {
	ts, err := htmlparse.NewTokenStream(html)
	if err != nil {
		return nil, err
	}
	rep := c.CheckTokenStream(ts)
	ts.Close()
	return rep, nil
}

// CheckStreamContext is CheckStream bounded by ctx: the token loop
// polls the context between batches, so a request deadline or a client
// disconnect interrupts the check mid-document instead of letting a
// hostile body hold a worker. On cancellation it returns ctx's error
// and no report.
func (c *Checker) CheckStreamContext(ctx context.Context, html []byte) (*Report, error) {
	ts, err := htmlparse.NewTokenStream(html)
	if err != nil {
		return nil, err
	}
	rep, err := c.checkTokenStream(ctx, ts)
	ts.Close()
	return rep, err
}

// CheckTokenStream drives the streaming rules over an open token stream.
// The report is fully assembled before returning — findings never alias
// the stream's recycled scratch — so the caller may Close the stream
// immediately after (CheckStream does; the conformance runner keeps it
// open long enough to read Hazard).
func (c *Checker) CheckTokenStream(ts *htmlparse.TokenStream) *Report {
	rep, _ := c.checkTokenStream(nil, ts)
	return rep
}

// cancelStride is how many tokens the streaming checker processes
// between context polls; mirrors the tree builder's stride.
const cancelStride = 512

// checkTokenStream is the single streaming implementation; ctx may be
// nil for the uncancellable path (no polling, no overhead).
func (c *Checker) checkTokenStream(ctx context.Context, ts *htmlparse.TokenStream) (*Report, error) {
	ps := c.newPass()
	// One token variable for the whole loop: its address is passed to
	// opaque hook funcs, so it escapes — once per document, not per token.
	var t htmlparse.Token
	tick := 0
	for {
		if ctx != nil {
			if tick++; tick >= cancelStride {
				tick = 0
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
		t = ts.Next()
		if t.Type == htmlparse.EOFToken {
			break
		}
		if t.Type == htmlparse.StartTagToken || t.Type == htmlparse.EndTagToken {
			ps.tag(&t)
		}
	}
	ps.errors(ts.Errors())
	return ps.report(nil), nil
}

// observe folds one start tag into the signals. Every mode calls it once
// per start tag through pass.tag, so all modes measure signals with the
// same code.
//
//hv:hotpath runs once per start tag on every checking path
func (s *Signals) observe(t *htmlparse.Token) {
	switch t.Data {
	case "math":
		s.UsesMath = true
	case "svg":
		s.UsesSVG = true
	}
	hasNonce := false
	hasScriptStr := false
	for _, a := range t.Attr {
		if urlAttributes[a.Name] && strings.ContainsRune(a.RawValue, '\n') {
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
