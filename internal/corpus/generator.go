// Package corpus deterministically generates the synthetic longitudinal
// web archive that stands in for Common Crawl (see DESIGN.md §4). Domains,
// page counts, and planted violations are pure functions of the seed, and
// the per-year violation prevalences follow calibration tables transcribed
// from the paper's figures — so the measurement pipeline, run end to end
// over this corpus, reproduces the paper's aggregate shapes.
package corpus

import (
	"fmt"
	"math"
	"sort"

	"github.com/hvscan/hvscan/internal/tranco"
)

// Config sizes and seeds a corpus.
type Config struct {
	// Seed drives all randomness; equal seeds render identical archives.
	Seed int64
	// Domains is the size of the dataset universe (the paper's is 24,915;
	// the default keeps laptop runs fast).
	Domains int
	// MaxPages caps pages per domain per snapshot (the paper's cap is 100).
	MaxPages int
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Seed: 22, Domains: 2400, MaxPages: 20}
}

// Generator renders the synthetic archive.
type Generator struct {
	cfg     Config
	domains []string
	ranks   map[string]int // domain -> 1-based true-popularity rank
}

// New returns a generator for the configuration. Zero fields are filled
// from DefaultConfig.
func New(cfg Config) *Generator {
	def := DefaultConfig()
	if cfg.Domains == 0 {
		cfg.Domains = def.Domains
	}
	if cfg.MaxPages == 0 {
		cfg.MaxPages = def.MaxPages
	}
	g := &Generator{cfg: cfg}
	g.domains = makeUniverse(cfg.Seed, cfg.Domains)
	g.ranks = make(map[string]int, len(g.domains))
	for i, d := range g.domains {
		g.ranks[d] = i + 1
	}
	return g
}

// Rank returns the domain's true-popularity rank (1 = most popular), or 0
// for domains outside the universe.
func (g *Generator) Rank(domain string) int { return g.ranks[domain] }

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Universe returns the dataset domains in true-popularity order (rank 1
// first).
func (g *Generator) Universe() []string {
	return append([]string(nil), g.domains...)
}

// TrancoLists derives n daily-style rankings over the universe: every list
// perturbs the true ranks with bounded noise and promotes a handful of
// per-list trending outliers, which the paper's intersection rule is
// designed to filter out.
func (g *Generator) TrancoLists(n int) []*tranco.List {
	lists := make([]*tranco.List, n)
	for li := 0; li < n; li++ {
		id := fmt.Sprintf("list-%02d", li+1)
		entries := make([]tranco.Entry, 0, len(g.domains)+len(g.domains)/100)
		for rank, d := range g.domains {
			trueRank := rank + 1
			noise := int((uniform(g.cfg.Seed, "listnoise", id, d) - 0.5) * 0.1 * float64(trueRank))
			score := trueRank + noise
			// A small fraction of domains vanish from individual lists
			// (measurement gaps) — the intersection rule drops them.
			if uniform(g.cfg.Seed, "listgap", id, d) < 0.002 {
				continue
			}
			entries = append(entries, tranco.Entry{Rank: score, Domain: d})
		}
		// Trending outliers: present on this list only, at a high rank.
		outliers := len(g.domains) / 200
		for oi := 0; oi < outliers; oi++ {
			entries = append(entries, tranco.Entry{
				Rank:   1 + pick(g.cfg.Seed, len(g.domains)/2, "outrank", id, itoa(oi)),
				Domain: fmt.Sprintf("trending-%s-%d.example", id, oi),
			})
		}
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Rank < entries[j].Rank })
		for i := range entries {
			entries[i].Rank = i + 1
		}
		lists[li] = &tranco.List{ID: id, Entries: entries}
	}
	return lists
}

// foundEver reports whether the domain appears on any snapshot at all
// (doubleclick.net-style API domains never do).
func (g *Generator) foundEver(domain string) bool {
	return uniform(g.cfg.Seed, "ever", domain) < foundEverRate
}

// Present reports whether the domain has captures in the snapshot.
func (g *Generator) Present(domain string, snap Snapshot) bool {
	if !g.foundEver(domain) {
		return false
	}
	y := snap.Index()
	return uniform(g.cfg.Seed, "present", domain, itoa(y)) < presentRate[y]/foundEverRate
}

// Succeeds reports whether the domain's captures are analyzable (HTML,
// UTF-8, 200s); failures model the Table 2 success-rate gap.
func (g *Generator) Succeeds(domain string, snap Snapshot) bool {
	y := snap.Index()
	return uniform(g.cfg.Seed, "success", domain, itoa(y)) < successRate[y]
}

// PageCount returns how many pages the snapshot holds for the domain,
// distributed so the per-snapshot average matches Table 2.
func (g *Generator) PageCount(domain string, snap Snapshot) int {
	if !g.Present(domain, snap) {
		return 0
	}
	y := snap.Index()
	m := avgPagesFrac[y]
	lo := 2*m - 1 // uniform on [2m-1, 1] has mean m
	if lo < 0.05 {
		lo = 0.05
	}
	u := uniform(g.cfg.Seed, "pages", domain, itoa(y))
	frac := lo + (1-lo)*u
	n := int(math.Round(frac * float64(g.cfg.MaxPages)))
	if n < 1 {
		n = 1
	}
	if n > g.cfg.MaxPages {
		n = g.cfg.MaxPages
	}
	return n
}

// PageURL returns the canonical URL of the domain's i-th page.
func (g *Generator) PageURL(domain string, i int) string {
	if i == 0 {
		return "https://" + domain + "/"
	}
	section := pageSections[pick(g.cfg.Seed, len(pageSections), "section", domain, itoa(i))]
	return fmt.Sprintf("https://%s/%s/%d", domain, section, i)
}

var pageSections = []string{"news", "blog", "products", "articles", "docs", "category", "archive", "pages"}

// era counts the re-roll events for one draw key up to the given year. A
// re-roll (a refactor touching that part of the markup) redraws the
// domain's exposure, which is what makes the all-years union exceed each
// single year's rate.
func (g *Generator) era(domain, key string, churn float64, yearIdx int) int {
	e := 0
	for y := 1; y <= yearIdx; y++ {
		if uniform(g.cfg.Seed, "refactor", key, domain, itoa(y)) < churn {
			e++
		}
	}
	return e
}

// quality is the domain's latent code-quality factor in [0,1): careless
// sites (high value) collect many independent violations, careful sites
// almost none. It induces the cross-rule correlation observed in the wild.
//
// A mild popularity tilt models the paper's §5.2 finding that top sites
// are larger and carry *more* violations on average than the long tail:
// the factor runs from 1.15 at rank 1 down to 0.85 at the bottom, which
// keeps the universe-wide marginals within a fraction of a percent of the
// calibration tables (the rate is locally linear in the tilt).
func (g *Generator) quality(domain string) float64 {
	z := uniform(g.cfg.Seed, "quality", domain)
	if rank, ok := g.ranks[domain]; ok && len(g.domains) > 1 {
		frac := float64(rank-1) / float64(len(g.domains)-1)
		z *= 1.15 - 0.3*frac
		if z >= 1 {
			z = 0.999999
		}
	}
	return z
}

// Violates reports whether the domain exhibits the violation in the
// snapshot's year. Marginally over domains, the rate equals the
// calibration table entry; churn and nesting shape the all-years unions.
func (g *Generator) Violates(domain, rule string, snap Snapshot) bool {
	y := snap.Index()
	rates, ok := violationRates[rule]
	if !ok {
		return false
	}
	if parent, nested := conditionalOn[rule]; nested {
		if !g.Violates(domain, parent, snap) {
			return false
		}
		ratio := rates[y] / violationRates[parent][y]
		era := g.era(domain, "cond:"+rule, ruleChurn[rule], y)
		return uniform(g.cfg.Seed, "condv", rule, domain, itoa(era)) < ratio
	}
	fam := familyOf(rule)
	era := g.era(domain, fam, ruleChurn[fam], y)
	p := rates[y] / 100 * 2 * g.quality(domain)
	u := uniform(g.cfg.Seed, "viol", fam, domain, itoa(era))
	return u < p
}

// HasSignal reports a non-violation signal (see signalRates).
func (g *Generator) HasSignal(domain, signal string, snap Snapshot) bool {
	y := snap.Index()
	rates, ok := signalRates[signal]
	if !ok {
		return false
	}
	p := rates[y] / 100 * 2 * g.quality(domain)
	era := g.era(domain, "sig:"+signal, signalChurn, y)
	u := uniform(g.cfg.Seed, "signal", signal, domain, itoa(era))
	return u < p
}

// ActiveRules lists the violations the domain exhibits in the snapshot, in
// catalogue order. This is ground truth for calibration tests; the
// measurement pipeline never reads it.
func (g *Generator) ActiveRules(domain string, snap Snapshot) []string {
	var out []string
	for _, r := range allRuleIDs {
		if g.Violates(domain, r, snap) {
			out = append(out, r)
		}
	}
	return out
}

// allRuleIDs mirrors core.RuleIDs without importing core (the corpus layer
// must not depend on the checker it calibrates).
var allRuleIDs = []string{
	"DE1", "DE2", "DE3_1", "DE3_2", "DE3_3", "DE4",
	"DM1", "DM2_1", "DM2_2", "DM2_3", "DM3",
	"HF1", "HF2", "HF3", "HF4", "HF5_1", "HF5_2", "HF5_3",
	"FB1", "FB2",
}
