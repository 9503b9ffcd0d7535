// Package analysis computes the paper's aggregate results (Tables 1–2,
// Figures 8–10 and 16–21, and the in-text statistics of §4.2, §4.4 and
// §4.5) from a populated result store.
package analysis

import (
	"sort"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/store"
)

// Analyzer reads a store and answers the paper's questions.
type Analyzer struct {
	st *store.Store
}

// New wraps a store.
func New(st *store.Store) *Analyzer { return &Analyzer{st: st} }

// Crawls returns the crawls present, chronological.
func (a *Analyzer) Crawls() []string { return a.st.Crawls() }

// analyzedDomains returns the analyzed domain results of a crawl.
func (a *Analyzer) analyzedDomains(crawl string) []*store.DomainResult {
	var out []*store.DomainResult
	for _, d := range a.st.Domains(crawl) {
		if d.Analyzed() {
			out = append(out, d)
		}
	}
	return out
}

// --- Figure 9: domains with at least one violation, per year ---

// YearlyPoint is one point of a yearly percentage series.
type YearlyPoint struct {
	Crawl    string
	Analyzed int
	Count    int
	Pct      float64
}

// YearlyViolating computes the Figure 9 series.
func (a *Analyzer) YearlyViolating() []YearlyPoint {
	var out []YearlyPoint
	for _, crawl := range a.Crawls() {
		doms := a.analyzedDomains(crawl)
		n := 0
		for _, d := range doms {
			if d.Violated() {
				n++
			}
		}
		out = append(out, point(crawl, len(doms), n))
	}
	return out
}

func point(crawl string, analyzed, count int) YearlyPoint {
	p := YearlyPoint{Crawl: crawl, Analyzed: analyzed, Count: count}
	if analyzed > 0 {
		p.Pct = 100 * float64(count) / float64(analyzed)
	}
	return p
}

// --- Figure 8: all-years distribution per rule ---

// Distribution computes, per rule, how many dataset domains exhibited the
// violation in at least one snapshot, as a percentage of all domains
// analyzed at least once.
func (a *Analyzer) Distribution() (total int, perRule map[string]YearlyPoint) {
	domains := map[string]bool{}
	hit := map[string]map[string]bool{} // rule -> domain set
	a.st.ForEach(func(d *store.DomainResult) {
		if !d.Analyzed() {
			return
		}
		domains[d.Domain] = true
		for rule, n := range d.Violations {
			if n == 0 {
				continue
			}
			set := hit[rule]
			if set == nil {
				set = map[string]bool{}
				hit[rule] = set
			}
			set[d.Domain] = true
		}
	})
	total = len(domains)
	perRule = make(map[string]YearlyPoint, len(hit))
	for _, rule := range core.RuleIDs() {
		perRule[rule] = point("all", total, len(hit[rule]))
	}
	return total, perRule
}

// UnionViolating computes §4.2's headline: the share of dataset domains
// with at least one violation in any snapshot.
func (a *Analyzer) UnionViolating() YearlyPoint {
	domains := map[string]bool{}
	violated := map[string]bool{}
	a.st.ForEach(func(d *store.DomainResult) {
		if !d.Analyzed() {
			return
		}
		domains[d.Domain] = true
		if d.Violated() {
			violated[d.Domain] = true
		}
	})
	return point("all", len(domains), len(violated))
}

// --- Figure 10: problem-group trends ---

// GroupTrends returns, per problem group, the yearly percentage of
// analyzed domains violating at least one rule of that group.
func (a *Analyzer) GroupTrends() map[core.Group][]YearlyPoint {
	groups := []core.Group{core.FilterBypass, core.DataManipulation,
		core.DataExfiltration, core.HTMLFormatting}
	out := make(map[core.Group][]YearlyPoint, len(groups))
	for _, crawl := range a.Crawls() {
		doms := a.analyzedDomains(crawl)
		counts := map[core.Group]int{}
		for _, d := range doms {
			seen := map[core.Group]bool{}
			for rule, n := range d.Violations {
				if n > 0 {
					seen[core.GroupOf(rule)] = true
				}
			}
			for g := range seen {
				counts[g]++
			}
		}
		for _, g := range groups {
			out[g] = append(out[g], point(crawl, len(doms), counts[g]))
		}
	}
	return out
}

// --- Figures 16–21: per-rule trends ---

// RuleTrends returns the yearly series for each given rule.
func (a *Analyzer) RuleTrends(rules ...string) map[string][]YearlyPoint {
	if len(rules) == 0 {
		rules = core.RuleIDs()
	}
	out := make(map[string][]YearlyPoint, len(rules))
	for _, crawl := range a.Crawls() {
		doms := a.analyzedDomains(crawl)
		counts := map[string]int{}
		for _, d := range doms {
			for rule, n := range d.Violations {
				if n > 0 {
					counts[rule]++
				}
			}
		}
		for _, rule := range rules {
			out[rule] = append(out[rule], point(crawl, len(doms), counts[rule]))
		}
	}
	return out
}

// --- Table 2: dataset statistics ---

// Table2Row mirrors a row of the paper's Table 2.
type Table2Row struct {
	Crawl      string
	Domains    int     // attempted (found on the crawl)
	Analyzed   int     // successfully analyzed
	SuccessPct float64 // analyzed / found
	AvgPages   float64 // analyzed pages per analyzed domain
}

// Table2 recomputes the dataset statistics from snapshot stats recorded by
// the pipeline.
func Table2(stats []store.CrawlStats) []Table2Row {
	rows := make([]Table2Row, 0, len(stats))
	for _, s := range stats {
		r := Table2Row{
			Crawl:    s.Crawl,
			Domains:  s.Found,
			Analyzed: s.Analyzed,
		}
		if s.Found > 0 {
			r.SuccessPct = 100 * float64(s.Analyzed) / float64(s.Found)
		}
		if s.Analyzed > 0 {
			r.AvgPages = float64(s.PagesAnalyzed) / float64(s.Analyzed)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Crawl < rows[j].Crawl })
	return rows
}

// --- §4.4: fixability ---

// Fixability quantifies the automation estimate for one crawl (the paper
// uses the latest snapshot).
type Fixability struct {
	Crawl            string
	Analyzed         int
	Violating        int
	OnlyAutoFixable  int     // violating domains whose every violation is FB/DM
	RemainingPct     float64 // violating after automatic fixes / analyzed
	FixableOfViolPct float64 // OnlyAutoFixable / Violating
}

// FixabilityFor computes §4.4 for the given crawl.
func (a *Analyzer) FixabilityFor(crawl string) Fixability {
	f := Fixability{Crawl: crawl}
	for _, d := range a.analyzedDomains(crawl) {
		f.Analyzed++
		if !d.Violated() {
			continue
		}
		f.Violating++
		if core.OnlyAutoFixable(d.Violations) {
			f.OnlyAutoFixable++
		}
	}
	if f.Violating > 0 {
		f.FixableOfViolPct = 100 * float64(f.OnlyAutoFixable) / float64(f.Violating)
	}
	if f.Analyzed > 0 {
		f.RemainingPct = 100 * float64(f.Violating-f.OnlyAutoFixable) / float64(f.Analyzed)
	}
	return f
}

// LatestCrawl returns the chronologically last crawl in the store.
func (a *Analyzer) LatestCrawl() string {
	crawls := a.Crawls()
	if len(crawls) == 0 {
		return ""
	}
	return crawls[len(crawls)-1]
}

// --- §4.5: mitigation overlap ---

// MitigationStats carries the per-crawl mitigation measurements.
type MitigationStats struct {
	Crawl         string
	Analyzed      int
	NewlineURL    YearlyPoint // URLs with a raw newline
	NewlineLtURL  YearlyPoint // URLs with newline and '<'
	ScriptInAttr  YearlyPoint // "<script" inside an attribute
	NonceAffected YearlyPoint // nonce-carrying scripts actually affected
	MathDomains   int         // domains using the math element
}

// Mitigations computes the §4.5 numbers for every crawl.
func (a *Analyzer) Mitigations() []MitigationStats {
	var out []MitigationStats
	for _, crawl := range a.Crawls() {
		doms := a.analyzedDomains(crawl)
		m := MitigationStats{Crawl: crawl, Analyzed: len(doms)}
		var nl, nlLt, script, nonce, math int
		for _, d := range doms {
			if d.Signals[store.SignalNewlineURL] > 0 || d.Signals[store.SignalNewlineLtURL] > 0 {
				nl++
			}
			if d.Signals[store.SignalNewlineLtURL] > 0 {
				nlLt++
			}
			if d.Signals[store.SignalScriptInAttr] > 0 {
				script++
			}
			if d.Signals[store.SignalNonceAffected] > 0 {
				nonce++
			}
			if d.Signals[store.SignalUsesMath] > 0 {
				math++
			}
		}
		m.NewlineURL = point(crawl, len(doms), nl)
		m.NewlineLtURL = point(crawl, len(doms), nlLt)
		m.ScriptInAttr = point(crawl, len(doms), script)
		m.NonceAffected = point(crawl, len(doms), nonce)
		m.MathDomains = math
		out = append(out, m)
	}
	return out
}
