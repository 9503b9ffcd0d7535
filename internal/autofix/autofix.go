// Package autofix implements the validated repair the paper's §4.4 argues
// for. Each fixable rule family has a registered Strategy that edits the
// parse tree (or relies on serialization normalizing the syntax), and
// every repair is verified by re-parsing the serialized output: the
// targeted rule must be gone and no rule of the full catalogue may have
// gained findings. Repair runs a bounded fix→recheck convergence loop —
// serialization can itself surface latent violations (an entity-encoded
// newline in a URL attribute decodes, renders literally, and only then
// trips DE3_1) — and a document that does not verify within the bound is
// reported Unfixable with the original bytes returned untouched. The
// engine never emits unverified output.
//
// The machine-repairable set is the paper's FB/DM classification
// (FixableRuleIDs) plus two DE families where the intent is recoverable
// without human judgment: DE3_1 and DE3_3 dangling-markup values are
// truncated at the first newline, exactly the mitigation Chromium applies
// at resource-load time. HF and the remaining DE rules stay out of scope:
// fixing them needs the developer's intent.
package autofix

import (
	"fmt"
	"sort"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Fix is one repair action taken.
type Fix struct {
	RuleID      string
	Description string
	// Pos is resolved against the input of the round that recorded it.
	Pos htmlparse.Position
}

func (f Fix) String() string {
	return fmt.Sprintf("%s: %s", f.RuleID, f.Description)
}

// Unfixable is one rule the engine could not verifiably repair, with the
// reason verification failed.
type Unfixable struct {
	RuleID string
	Reason string
}

func (u Unfixable) String() string {
	return fmt.Sprintf("%s: %s", u.RuleID, u.Reason)
}

// Outcome classifies a whole-document repair.
type Outcome string

const (
	// OutcomeClean: the input had no violations at all; Output is the
	// input, byte for byte.
	OutcomeClean Outcome = "clean"
	// OutcomeFixed: the repair loop ran and the verified output has zero
	// violations of any catalogue rule.
	OutcomeFixed Outcome = "fixed"
	// OutcomePartial: the output verified (no strategy-covered rule
	// remains, nothing got worse) but violations outside the
	// machine-repairable set persist and need a human.
	OutcomePartial Outcome = "partial"
	// OutcomeUnfixable: verification failed; Output is the original
	// input and Applied is empty — no unverified bytes are emitted.
	OutcomeUnfixable Outcome = "unfixable"
)

// Outcomes lists every Outcome value (metric label domain).
func Outcomes() []string {
	return []string{string(OutcomeClean), string(OutcomeFixed),
		string(OutcomePartial), string(OutcomeUnfixable)}
}

// Result is the outcome of Repair.
type Result struct {
	// Output is the repaired document. On OutcomeUnfixable (and on
	// OutcomeClean) it is the original input, unchanged.
	Output []byte
	// Applied lists the verified repairs, in application order. Empty
	// when verification failed: fixes from a discarded attempt are not
	// reported as applied.
	Applied []Fix
	// Unfixable lists the rules verification could not clear, with
	// reasons. Non-empty exactly when the outcome is OutcomeUnfixable.
	Unfixable []Unfixable
	// RemainingHits is the per-rule violation count of Output (for
	// OutcomeUnfixable: of the original input).
	RemainingHits map[string]int
	// Rounds is how many fix→recheck rounds ran.
	Rounds int
}

// Outcome classifies the result. A repair that ran rounds and ended with
// zero violations is OutcomeFixed even when Applied is empty: a violating
// token the tree builder dropped (a nested form, say) leaves nothing for
// a strategy to edit, yet serialization removes it and verification
// proves the removal.
func (r *Result) Outcome() Outcome {
	switch {
	case len(r.Unfixable) > 0:
		return OutcomeUnfixable
	case totalHits(r.RemainingHits) > 0:
		return OutcomePartial
	case r.Rounds == 0:
		return OutcomeClean
	default:
		return OutcomeFixed
	}
}

func totalHits(hits map[string]int) int {
	n := 0
	for _, v := range hits {
		n += v
	}
	return n
}

// FixableRuleIDs returns the paper's auto-fixable classification (§4.4):
// the FB and DM groups, straight from the core catalogue.
func FixableRuleIDs() []string {
	var out []string
	for _, r := range core.Rules() {
		if r.AutoFixable {
			out = append(out, r.ID)
		}
	}
	return out
}

// RemainingIDs returns the rule IDs still violated in the result's
// output, sorted.
func (r *Result) RemainingIDs() []string {
	var out []string
	for id, n := range r.RemainingHits {
		if n > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
