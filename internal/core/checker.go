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
	// hits, when instrumented, holds one counter per rule (parallel to
	// rules); pages counts every document checked. Both stay nil on an
	// uninstrumented checker, keeping the hot path a nil check.
	hits  []*obs.Counter
	pages *obs.Counter
}

// NewChecker returns a checker over the full catalogue, or over the given
// subset if rule IDs are passed. IDs not in the catalogue are skipped;
// ParseRuleIDs validates a user-supplied list first.
func NewChecker(ids ...string) *Checker {
	if len(ids) == 0 {
		return &Checker{rules: Rules()}
	}
	var rs []Rule
	for _, id := range ids {
		if r, ok := RuleByID(id); ok {
			rs = append(rs, r)
		}
	}
	return &Checker{rules: rs}
}

// NewCheckerWith returns a checker over an explicit rule list —
// catalogue rules, custom rules, or a mix. The serving layer's fault
// tests use it to inject misbehaving rules; embedders use it to run
// house rules beside the catalogue.
func NewCheckerWith(rules ...Rule) *Checker {
	return &Checker{rules: rules}
}

// Rules returns the checker's rule set.
func (c *Checker) Rules() []Rule { return c.rules }

// NeedsTree reports true: every check parses the tree.
//
// Deprecated: kept only for perfbench until its next change.
func (c *Checker) NeedsTree() bool { return true }

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

// pass is one document's run of the checker's rules: the live hook state
// of every rule, the findings each has emitted so far, and the page
// signals. A pass is the parse's htmlparse.Observer: its Tag, Error and
// Event methods take the tags, parse errors and tree events as the parse
// reaches them (CheckTree, and so Check and CheckContext), or as
// CheckParsed replays them from a recorded Result; then parsed walks the
// finished tree's elements. Rules and signals are computed by the same
// code either way.
type pass struct {
	c     *Checker
	rules []ruleRun // parallel to c.rules
	// tokens, errors, events and elements list the runs that have each
	// hook, in catalogue order, so a tag, error, event or element visits
	// only the rules that take it.
	tokens, errors, events, elements []*ruleRun
	sig                              Signals
}

// ruleRun is one rule's share of a pass: its hooks, what they emitted,
// and the emit func they append with.
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
	// The four lists share one array, sized for one hook per rule as in
	// the catalogue.
	hooks := make([]*ruleRun, 0, len(c.rules))
	list := func(has func(*ruleRun) bool) []*ruleRun {
		start := len(hooks)
		for i := range ps.rules {
			if rr := &ps.rules[i]; has(rr) {
				hooks = append(hooks, rr)
			}
		}
		return hooks[start:]
	}
	ps.tokens = list(func(rr *ruleRun) bool { return rr.Token != nil })
	ps.errors = list(func(rr *ruleRun) bool { return rr.Error != nil })
	ps.events = list(func(rr *ruleRun) bool { return rr.Event != nil })
	ps.elements = list(func(rr *ruleRun) bool { return rr.Element != nil })
	return ps
}

// Tag feeds one start or end tag to the signals and every token hook.
func (ps *pass) Tag(t *htmlparse.Token) {
	if t.Type == htmlparse.StartTagToken {
		ps.sig.observe(t)
	}
	for _, rr := range ps.tokens {
		rr.Token(t, rr.emit)
	}
}

// Error feeds one parse error to every error hook.
func (ps *pass) Error(e htmlparse.ParseError) {
	for _, rr := range ps.errors {
		rr.Error(e, rr.emit)
	}
}

// Event feeds one tree event to every event hook.
func (ps *pass) Event(e *htmlparse.TreeEvent) {
	for _, rr := range ps.events {
		rr.Event(e, rr.emit)
	}
}

// parsed feeds each element of one pre-order walk of the finished tree to
// every element hook. The walk is skipped when no rule has an element
// hook.
func (ps *pass) parsed(res *htmlparse.Result) {
	if len(ps.elements) == 0 {
		return
	}
	res.Doc.Walk(func(n *htmlparse.Node) bool {
		if n.Type == htmlparse.ElementNode {
			for _, rr := range ps.elements {
				rr.Element(n, rr.emit)
			}
		}
		return true
	})
}

// report is the single report-assembly path: in catalogue order, each
// rule contributes what its hooks emitted. It resolves the findings'
// lines and columns against the parse's input, in one walk per page,
// fills RuleHits, attaches the signals, and records the instrumented
// counters, so the entry points cannot drift in how a Report is put
// together.
func (ps *pass) report(res *htmlparse.Result, url string) *Report {
	c := ps.c
	rep := &Report{URL: url, RuleHits: make(map[string]int, len(c.rules))}
	for i, rule := range c.rules {
		if fs := ps.rules[i].found; len(fs) > 0 {
			rep.RuleHits[rule.ID] = len(fs)
			rep.Findings = append(rep.Findings, fs...)
		}
	}
	htmlparse.ResolvePositions(res.Input, rep.Findings, func(f *Finding) *htmlparse.Position { return &f.Pos })
	rep.Signals = ps.sig
	c.countHits(rep)
	return rep
}

// Check is CheckContext with no deadline and no depth cap.
func (c *Checker) Check(html []byte) (*Report, error) { return c.CheckContext(nil, html, 0) }

// CheckContext is CheckTree for a caller that keeps only the report. It
// returns htmlparse.ErrNotUTF8 for documents the pipeline must filter
// (paper §4.1), and on an abort the error and no report.
func (c *Checker) CheckContext(ctx context.Context, html []byte, maxTreeDepth int) (*Report, error) {
	var rep *Report
	err := c.CheckTree(ctx, html, maxTreeDepth, func(_ *htmlparse.Result, r *Report) { rep = r })
	return rep, err
}

// CheckTree parses html once, checks it during that parse and calls f
// with the Result and its report. The pass is the parse's observer, so
// tags, parse errors and tree events reach the hooks as the parse emits
// them and nothing is recorded or replayed; only the element walk runs
// on the finished tree. The parse runs in htmlparse.ParseScoped: the
// Result is valid only inside f, and when f returns the tree's node
// slabs go back to the pooled parser, so f must not retain Doc or any
// Node (the repair engine edits and serializes the tree inside f). The
// report is the caller's to keep. ctx bounds the parse and a positive
// maxTreeDepth caps the open-element stack; on either abort f is not
// called and the error is returned. A nil ctx is never canceled and caps
// no depth.
func (c *Checker) CheckTree(ctx context.Context, html []byte, maxTreeDepth int, f func(*htmlparse.Result, *Report)) error {
	ps := c.newPass()
	return htmlparse.ParseScoped(ctx, html, htmlparse.Options{MaxTreeDepth: maxTreeDepth}, ps, func(res *htmlparse.Result) {
		ps.parsed(res)
		f(res, ps.report(res, ""))
	})
}

// CheckParsed runs the rules over a page from a recording parse (Parse,
// ParseFragment, ParseReuse): it replays the page's tags, then its
// errors, then its events through the pass's observer methods, and walks
// the tree as CheckTree does.
func (c *Checker) CheckParsed(p *Page) *Report {
	ps := c.newPass()
	for i := range p.Tokens {
		ps.Tag(&p.Tokens[i])
	}
	for _, e := range p.Errors {
		ps.Error(e)
	}
	for i := range p.Events {
		ps.Event(&p.Events[i])
	}
	ps.parsed(p.Result)
	return ps.report(p.Result, p.URL)
}

// CheckStreamContext is CheckContext with no depth cap.
//
// Deprecated: kept only for perfbench until its next change.
func (c *Checker) CheckStreamContext(ctx context.Context, html []byte) (*Report, error) {
	return c.CheckContext(ctx, html, 0)
}

// observe folds one start tag into the signals. Every entry point calls
// it once per start tag through pass.Tag, so all of them measure signals
// with the same code.
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
