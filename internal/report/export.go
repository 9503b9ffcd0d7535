package report

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"github.com/hvscan/hvscan/internal/analysis"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/store"
)

// Machine-readable exports of the full experiment suite, for plotting the
// figures outside Go (matplotlib, gnuplot, spreadsheets).

// Export carries every measured aggregate plus the paper's reference
// values, keyed the way the paper's figures are.
type Export struct {
	Crawls  []string                    `json:"crawls"`
	Table2  []analysis.Table2Row        `json:"table2,omitempty"`
	Figure8 map[string]PaperComparison  `json:"figure8_union_pct"`
	Figure9 []YearComparison            `json:"figure9_violating_pct"`
	Groups  map[string][]float64        `json:"figure10_group_pct"`
	Rules   map[string][]float64        `json:"rule_trend_pct"`
	Paper   map[string][]float64        `json:"paper_rule_trend_pct"`
	Union   PaperComparison             `json:"section42_union_pct"`
	Fix     analysis.Fixability         `json:"section44_fixability"`
	Mitig   []analysis.MitigationStats  `json:"section45_mitigations"`
	Plan    []analysis.DeprecationStage `json:"section53_plan"`
}

// PaperComparison pairs a measured value with the paper's.
type PaperComparison struct {
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper"`
}

// YearComparison is one yearly point with the paper's value.
type YearComparison struct {
	Crawl    string  `json:"crawl"`
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper"`
}

// BuildExport assembles the export from an analyzer.
func BuildExport(a *analysis.Analyzer, stats []store.CrawlStats) *Export {
	e := &Export{
		Crawls:  a.Crawls(),
		Figure8: map[string]PaperComparison{},
		Groups:  map[string][]float64{},
		Rules:   map[string][]float64{},
		Paper:   analysis.PaperRuleTrends,
	}
	if len(stats) > 0 {
		e.Table2 = analysis.Table2(stats)
	}
	_, dist := a.Distribution()
	for _, rule := range core.RuleIDs() {
		e.Figure8[rule] = PaperComparison{Measured: dist[rule].Pct, Paper: analysis.PaperFigure8[rule]}
	}
	for i, p := range a.YearlyViolating() {
		yc := YearComparison{Crawl: p.Crawl, Measured: p.Pct}
		if i < len(analysis.PaperFigure9) {
			yc.Paper = analysis.PaperFigure9[i]
		}
		e.Figure9 = append(e.Figure9, yc)
	}
	for g, pts := range a.GroupTrends() {
		e.Groups[string(g)] = pcts(pts)
	}
	for rule, pts := range a.RuleTrends() {
		e.Rules[rule] = pcts(pts)
	}
	u := a.UnionViolating()
	e.Union = PaperComparison{Measured: u.Pct, Paper: analysis.PaperUnionViolatingPct}
	e.Fix = a.FixabilityFor(a.LatestCrawl())
	e.Mitig = a.Mitigations()
	e.Plan = a.DeprecationPlan(1.0, 25)
	return e
}

// WriteJSON emits the export as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteCSV emits the per-rule yearly series as tidy CSV with measured and
// paper columns — one row per (rule, crawl):
//
//	rule,crawl,measured_pct,paper_pct
func (e *Export) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rule", "crawl", "measured_pct", "paper_pct"}); err != nil {
		return err
	}
	for _, rule := range core.RuleIDs() {
		series := e.Rules[rule]
		paper := e.Paper[rule]
		for i, crawl := range e.Crawls {
			row := []string{rule, crawl, fmtPct(series, i), fmtPct(paper, i)}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtPct(series []float64, i int) string {
	if i >= len(series) {
		return ""
	}
	return strconv.FormatFloat(series[i], 'f', 4, 64)
}
