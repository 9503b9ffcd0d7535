package conformance

import (
	"bytes"
	"fmt"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// The repair invariants: properties the validated repair engine
// (internal/autofix) must satisfy for EVERY input, not just the golden
// fix corpus. They are the fix-side counterparts of the parser
// invariants above and run under the same seeded-table + fuzz regime:
//
//  1. FixIdempotence — Repair(Repair(x)) is a no-op: a verified repair's
//     output re-repairs to itself with zero applied fixes. This is what
//     makes `hvfix -w` safe to run twice.
//  2. FixMonotonicity — repair never increases any rule's violation
//     count, and a verified (non-Unfixable) repair drives every
//     strategy-covered rule to zero. An Unfixable result returns the
//     input byte for byte with no applied fixes.

// FixIdempotence checks Repair(Repair(x)) ≡ Repair(x). Inputs the
// repair engine rejects operationally (non-UTF-8, depth caps) report
// skipped=true; the repaired output of an accepted input must itself be
// accepted, so a second-pass error is a verdict, not a skip.
func FixIdempotence(input []byte) (skipped bool, err error) {
	r1, rerr := autofix.Repair(input)
	if rerr != nil {
		return true, nil // outside the engine's operational domain
	}
	r2, rerr := autofix.Repair(r1.Output)
	if rerr != nil {
		return false, fmt.Errorf("second repair of %q left the engine's domain: %v", input, rerr)
	}
	if !bytes.Equal(r2.Output, r1.Output) {
		return false, fmt.Errorf("repair of %q is not idempotent:\n pass1 %q\n pass2 %q",
			input, r1.Output, r2.Output)
	}
	if len(r2.Applied) != 0 {
		return false, fmt.Errorf("second repair of %q applied %d fix(es): %v",
			input, len(r2.Applied), r2.Applied)
	}
	if (len(r2.Unfixable) > 0) != (len(r1.Unfixable) > 0) {
		return false, fmt.Errorf("repair verdict of %q flipped between passes:\n pass1 %v\n pass2 %v",
			input, r1.Unfixable, r2.Unfixable)
	}
	return false, nil
}

// FixMonotonicity checks that repair never makes a document worse: no
// rule's hit count may exceed the input's, a verified repair leaves
// every strategy-covered rule at zero, and an Unfixable repair returns
// the input untouched with no applied fixes.
func FixMonotonicity(input []byte) (skipped bool, err error) {
	res, perr := htmlparse.Parse(input)
	if perr != nil {
		return true, nil // outside the checker's domain
	}
	checker := core.NewChecker()
	before := checker.CheckParsed(&core.Page{Result: res})
	r, rerr := autofix.Repair(input)
	if rerr != nil {
		return false, fmt.Errorf("parseable input %q was rejected by Repair: %v", input, rerr)
	}
	if len(r.Unfixable) > 0 {
		if !bytes.Equal(r.Output, input) {
			return false, fmt.Errorf("unfixable repair of %q did not return the input:\n got %q",
				input, r.Output)
		}
		if len(r.Applied) != 0 {
			return false, fmt.Errorf("unfixable repair of %q reported applied fixes: %v",
				input, r.Applied)
		}
		return false, nil
	}
	outRes, perr := htmlparse.Parse(r.Output)
	if perr != nil {
		return false, fmt.Errorf("verified repair of %q is not parseable: %v", input, perr)
	}
	after := checker.CheckParsed(&core.Page{Result: outRes})
	for _, id := range autofix.StrategyRuleIDs() {
		if after.RuleHits[id] > 0 {
			return false, fmt.Errorf("strategy-covered rule %s survives a verified repair of %q (%d hit(s))",
				id, input, after.RuleHits[id])
		}
	}
	for id, n := range after.RuleHits {
		if n > before.RuleHits[id] {
			return false, fmt.Errorf("repair increased rule hits for %q:\n%s",
				input, diffRuleHits(before.RuleHits, after.RuleHits))
		}
	}
	return false, nil
}
