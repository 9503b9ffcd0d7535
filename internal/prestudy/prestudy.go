// Package prestudy implements the paper's §5.1 dynamic-content pre-study:
// Common Crawl only archives static HTML, so the paper separately
// collected the HTML fragments that the top 1K sites load at runtime and
// checked those. Here the fragments come from the corpus generator and are
// checked with the fragment parsing algorithm (innerHTML semantics — how
// a framework would actually insert them).
package prestudy

import (
	"sort"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// DynamicResult summarizes the pre-study.
type DynamicResult struct {
	Sites         int // sites examined (top N with any dynamic content)
	SitesWithViol int
	ViolatingPct  float64
	Fragments     int
	RuleDomains   map[string]int // rule -> sites exhibiting it
	TopRules      []string       // rules by descending prevalence
	MathRuleQuiet bool           // HF5_3 (math) absent, as in the paper
}

// RunDynamic examines the runtime fragments of the top n universe domains
// in the given snapshot.
func RunDynamic(g *corpus.Generator, snap corpus.Snapshot, n int) (*DynamicResult, error) {
	checker := core.NewChecker()
	res := &DynamicResult{RuleDomains: map[string]int{}}
	domains := g.Universe()
	if n > len(domains) {
		n = len(domains)
	}
	for _, domain := range domains[:n] {
		count := g.DynamicFragmentCount(domain, snap)
		if count == 0 {
			continue
		}
		res.Sites++
		siteRules := map[string]bool{}
		for i := 0; i < count; i++ {
			frag := g.DynamicFragment(domain, snap, i)
			parsed, err := htmlparse.ParseFragment(frag, "div")
			if err != nil {
				return nil, err
			}
			rep := checker.CheckParsed(&core.Page{Result: parsed})
			res.Fragments++
			for _, id := range rep.ViolatedIDs() {
				siteRules[id] = true
			}
		}
		if len(siteRules) > 0 {
			res.SitesWithViol++
		}
		for id := range siteRules {
			res.RuleDomains[id]++
		}
	}
	if res.Sites > 0 {
		res.ViolatingPct = 100 * float64(res.SitesWithViol) / float64(res.Sites)
	}
	for id := range res.RuleDomains {
		res.TopRules = append(res.TopRules, id)
	}
	sort.Slice(res.TopRules, func(i, j int) bool {
		if res.RuleDomains[res.TopRules[i]] != res.RuleDomains[res.TopRules[j]] {
			return res.RuleDomains[res.TopRules[i]] > res.RuleDomains[res.TopRules[j]]
		}
		return res.TopRules[i] < res.TopRules[j]
	})
	res.MathRuleQuiet = res.RuleDomains["HF5_3"] == 0
	return res, nil
}
