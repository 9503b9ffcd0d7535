package conformance

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Runner executes a fixture corpus against the parser and aggregates
// the differential-oracle verdicts. It is deliberately dumb: load
// cases, run each through the real parse pipeline, diff the observable
// (token stream or tree dump plus error-code list) byte-for-byte, and
// attribute every divergence to exactly one of pass / fail / skip.

// Outcome classifies one executed case.
type Outcome int

const (
	Pass Outcome = iota
	Fail
	Skip
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Fail:
		return "fail"
	case Skip:
		return "skip"
	}
	return "unknown"
}

// CaseResult is the verdict for one fixture case.
type CaseResult struct {
	ID      string
	Outcome Outcome
	// Detail is the diff for failures, the reason for skips, "" for passes.
	Detail string
}

// Report aggregates a corpus run.
type Report struct {
	Results  []CaseResult
	Coverage *Coverage
	// StaleSkips are skiplist entries that matched no fixture.
	StaleSkips []string
}

// Total returns the number of executed cases.
func (r *Report) Total() int { return len(r.Results) }

// Count returns how many cases had the given outcome.
func (r *Report) Count(o Outcome) int {
	n := 0
	for _, c := range r.Results {
		if c.Outcome == o {
			n++
		}
	}
	return n
}

// Failures returns the failing case results.
func (r *Report) Failures() []CaseResult {
	var out []CaseResult
	for _, c := range r.Results {
		if c.Outcome == Fail {
			out = append(out, c)
		}
	}
	return out
}

// Runner loads and executes fixture corpora.
type Runner struct {
	Skips *Skiplist
	// Update rewrites golden sections (#errors, #document, output,
	// errors) from observed behavior instead of diffing; cases whose
	// input the parser rejects outright still fail.
	Update bool

	report Report
}

// NewRunner returns a Runner with the given skiplist (nil means empty).
func NewRunner(skips *Skiplist) *Runner {
	if skips == nil {
		skips = &Skiplist{reasons: map[string]string{}, used: map[string]bool{}}
	}
	return &Runner{Skips: skips, report: Report{Coverage: NewCoverage()}}
}

// Report finalizes and returns the aggregated report.
func (r *Runner) Report() *Report {
	r.report.StaleSkips = r.Skips.Stale()
	sort.Strings(r.report.StaleSkips)
	return &r.report
}

// RunTreeDir executes every .dat file under dir. With Update set it
// returns the rewritten file contents keyed by path.
func (r *Runner) RunTreeDir(dir string) (updated map[string]string, err error) {
	files, err := globSorted(filepath.Join(dir, "*.dat"))
	if err != nil {
		return nil, err
	}
	updated = map[string]string{}
	for _, path := range files {
		cases, err := ParseDatFile(path)
		if err != nil {
			return nil, err
		}
		changed := false
		for i := range cases {
			if r.runTree(&cases[i]) {
				changed = true
			}
		}
		if r.Update && changed {
			updated[path] = FormatDat(cases)
		}
	}
	return updated, nil
}

// runTree executes one tree-construction case, recording the verdict.
// It reports whether the case's golden sections were rewritten.
func (r *Runner) runTree(c *TreeCase) bool {
	if reason, ok := r.Skips.Lookup(c.ID()); ok {
		r.record(c.ID(), Skip, reason)
		return false
	}
	var res *htmlparse.Result
	var err error
	if c.Fragment != "" {
		res, err = htmlparse.ParseFragment([]byte(c.Data), c.Fragment)
	} else {
		res, err = htmlparse.Parse([]byte(c.Data))
	}
	if err != nil {
		r.record(c.ID(), Fail, fmt.Sprintf("parse rejected input: %v", err))
		return false
	}
	gotErrs := make([]string, len(res.Errors))
	for i, e := range res.Errors {
		gotErrs[i] = string(e.Code)
	}
	gotDump := htmlparse.DumpTree(res.Doc)
	if r.Update {
		c.Errors = gotErrs
		c.Document = strings.TrimSuffix(gotDump, "\n")
		r.report.Coverage.RecordNames(gotErrs)
		r.record(c.ID(), Pass, "")
		return true
	}
	var problems []string
	if d := diffStringSlices(c.Errors, gotErrs); d != "" {
		problems = append(problems, "error codes diverge:\n"+d)
	}
	if want, got := normalizeDump(c.Document), normalizeDump(gotDump); want != got {
		problems = append(problems,
			fmt.Sprintf("tree diverges:\n--- want ---\n%s\n--- got ---\n%s", want, got))
	}
	if len(problems) > 0 {
		r.record(c.ID(), Fail, strings.Join(problems, "\n"))
		return false
	}
	r.report.Coverage.RecordNames(gotErrs)
	r.record(c.ID(), Pass, "")
	return false
}

// RunTokenDir executes every .test file under dir. With Update set it
// returns the rewritten file contents keyed by path.
func (r *Runner) RunTokenDir(dir string) (updated map[string]string, err error) {
	files, err := globSorted(filepath.Join(dir, "*.test"))
	if err != nil {
		return nil, err
	}
	updated = map[string]string{}
	for _, path := range files {
		cases, err := ParseTestFile(path)
		if err != nil {
			return nil, err
		}
		changed := false
		for i := range cases {
			if r.runToken(&cases[i]) {
				changed = true
			}
		}
		if r.Update && changed {
			content, err := FormatTestFile(cases)
			if err != nil {
				return nil, err
			}
			updated[path] = content
		}
	}
	return updated, nil
}

// runToken executes one tokenizer case, recording the verdict. It
// reports whether the case's golden sections were rewritten.
func (r *Runner) runToken(c *TokenCase) bool {
	if reason, ok := r.Skips.Lookup(c.ID(), c.BaseID()); ok {
		r.record(c.ID(), Skip, reason)
		return false
	}
	gotOut, gotErrs, err := RunTokenizer(c)
	if err != nil {
		r.record(c.ID(), Fail, fmt.Sprintf("tokenizer rejected input: %v", err))
		return false
	}
	record := func() {
		for _, e := range gotErrs {
			r.report.Coverage.RecordCode(htmlparse.ErrorCode(e.Code))
		}
	}
	if r.Update {
		c.Output = gotOut
		c.Errors = gotErrs
		record()
		r.record(c.ID(), Pass, "")
		return true
	}
	var problems []string
	tokDiff, err := diffTokens(c.Output, gotOut)
	if err != nil {
		r.record(c.ID(), Fail, err.Error())
		return false
	}
	if tokDiff != "" {
		problems = append(problems, tokDiff)
	}
	if d := diffErrors(c.Errors, gotErrs); d != "" {
		problems = append(problems, d)
	}
	if len(problems) > 0 {
		r.record(c.ID(), Fail, strings.Join(problems, "\n"))
		return false
	}
	record()
	r.record(c.ID(), Pass, "")
	return false
}

func (r *Runner) record(id string, o Outcome, detail string) {
	r.report.Results = append(r.report.Results, CaseResult{ID: id, Outcome: o, Detail: detail})
}

// diffStringSlices returns "" when equal, else a want/got listing.
func diffStringSlices(want, got []string) string {
	if len(want) == len(got) {
		same := true
		for i := range want {
			if want[i] != got[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	return fmt.Sprintf("  want: %s\n  got:  %s", strings.Join(want, ", "), strings.Join(got, ", "))
}

// jsonCompact is a helper for tests constructing expected tuples.
func jsonCompact(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
