package perf

import (
	"fmt"
	"strings"
)

// Verdict classifies one benchmark's movement between two runs.
type Verdict string

const (
	// OK: within tolerance (including any speedup below the threshold).
	OK Verdict = "ok"
	// Faster: improved by more than the tolerance.
	Faster Verdict = "faster"
	// Regression: ns/op grew by more than the tolerance.
	Regression Verdict = "regression"
	// Missing: present in the baseline but absent from the new run — a
	// silently deleted benchmark would otherwise let a regression hide.
	Missing Verdict = "missing"
	// Added: present only in the new run; informational, never a failure.
	Added Verdict = "added"
)

// Delta is the comparison of one benchmark across two runs.
type Delta struct {
	Name    string
	Old     Metrics
	New     Metrics
	Ratio   float64 // new ns/op divided by old ns/op; 0 when one side is missing
	Verdict Verdict
}

// Diff is the full comparison of a new run against a baseline.
type Diff struct {
	Tolerance float64
	Deltas    []Delta
}

// Compare diffs a new run against a baseline with the given relative
// tolerance on ns/op (0.10 = fail beyond +10%). Benchmarks are matched by
// name; baseline benchmarks missing from the new run are failures,
// benchmarks new to this run are reported but never fail the gate.
func Compare(baseline, current *Run, tolerance float64) *Diff {
	d := &Diff{Tolerance: tolerance}
	for _, name := range baseline.Names() {
		old := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			d.Deltas = append(d.Deltas, Delta{Name: name, Old: old, Verdict: Missing})
			continue
		}
		ratio := cur.NsPerOp / old.NsPerOp
		v := OK
		switch {
		case ratio > 1+tolerance:
			v = Regression
		case ratio < 1-tolerance:
			v = Faster
		}
		d.Deltas = append(d.Deltas, Delta{Name: name, Old: old, New: cur, Ratio: ratio, Verdict: v})
	}
	for _, name := range current.Names() {
		if _, ok := baseline.Benchmarks[name]; !ok {
			d.Deltas = append(d.Deltas, Delta{Name: name, New: current.Benchmarks[name], Verdict: Added})
		}
	}
	return d
}

// Failures returns the deltas that should fail a gate: regressions beyond
// tolerance and benchmarks that vanished relative to the baseline.
func (d *Diff) Failures() []Delta {
	var out []Delta
	for _, dl := range d.Deltas {
		if dl.Verdict == Regression || dl.Verdict == Missing {
			out = append(out, dl)
		}
	}
	return out
}

// Markdown renders the comparison as a GitHub-flavored markdown table,
// suitable for $GITHUB_STEP_SUMMARY. Percentages are relative ns/op
// movement; negative is faster.
func (d *Diff) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | old ns/op | new ns/op | delta | MB/s | B/op | allocs/op | verdict |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, dl := range d.Deltas {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			dl.Name,
			cellNs(dl.Old), cellNs(dl.New),
			cellDelta(dl),
			cellPair(dl.Old.MBPerSec, dl.New.MBPerSec, "%.2f"),
			cellPair(dl.Old.BytesPerOp, dl.New.BytesPerOp, "%.0f"),
			cellPair(dl.Old.AllocsPerOp, dl.New.AllocsPerOp, "%.0f"),
			string(dl.Verdict))
	}
	return b.String()
}

func cellNs(m Metrics) string {
	if m.NsPerOp == 0 {
		return "—"
	}
	return fmt.Sprintf("%.0f", m.NsPerOp)
}

func cellDelta(dl Delta) string {
	if dl.Ratio == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", (dl.Ratio-1)*100)
}

// cellPair renders "old → new" for a secondary metric, collapsing to one
// value when only one side reported it.
func cellPair(old, cur float64, format string) string {
	switch {
	case old == 0 && cur == 0:
		return "—"
	case old == 0:
		return fmt.Sprintf(format, cur)
	case cur == 0:
		return fmt.Sprintf(format, old)
	}
	return fmt.Sprintf(format+" → "+format, old, cur)
}
