package autofix

import (
	"bytes"
	"context"
	"fmt"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// maxRounds bounds the fix→recheck convergence loop. One round
// suffices for independent fixes; a second absorbs violations that
// serialization itself surfaces (e.g. an entity-encoded newline in a URL
// attribute decoding into a literal one); the third is headroom. A
// document that has not converged by then is declared Unfixable rather
// than looped on.
const maxRounds = 3

// Options configures Repair.
type Options struct {
	// MaxTreeDepth is forwarded to the parser (0 = unlimited). Online
	// serving sets it so hostile nesting fails fast; see
	// htmlparse.Options.
	MaxTreeDepth int
}

// Repair runs the full strategy registry over input with default options.
func Repair(input []byte) (*Result, error) {
	//lint:ignore ctxsleep convenience wrapper for batch callers; cancellable paths use RepairContext
	return RepairContext(context.Background(), input, Options{})
}

// RepairContext parses input, applies every strategy whose rule has
// findings, serializes, and verifies the result by re-parsing: each
// strategy-covered rule must reach zero findings and no rule of the
// catalogue may gain any, within the bounded convergence loop. On
// verification failure the returned Result carries the original input,
// an empty Applied list, and the Unfixable reasons — unverified output is
// never emitted. The error return is operational only (invalid encoding,
// depth cap on the input, context cancellation), never a failed repair.
func RepairContext(ctx context.Context, input []byte, opts Options) (*Result, error) {
	checker := core.NewChecker()
	check := func(b []byte) (*htmlparse.Result, *core.Report, error) {
		return checker.CheckTree(ctx, b, opts.MaxTreeDepth)
	}
	res, rep, err := check(input)
	if err != nil {
		return nil, err
	}
	origHits := rep.RuleHits

	r := &Result{Output: input, RemainingHits: origHits}
	if !anyTargeted(rep) {
		// Nothing the registry covers: the no-op result is the input
		// itself, byte for byte (this is what makes a verified repair
		// idempotent — the second pass changes nothing).
		observeRepair(r, nil)
		return r, nil
	}

	cur := input
	var applied []Fix
	fail := func(uf ...Unfixable) *Result {
		r.Output = input
		r.Applied = nil
		r.RemainingHits = origHits
		r.Unfixable = uf
		observeRepair(r, applied)
		return r
	}
	for round := 1; ; round++ {
		r.Rounds = round
		fixes := applyStrategies(res, rep)
		applied = append(applied, fixes...)
		out := []byte(htmlparse.RenderString(res.Doc))

		outRes, outRep, err := check(out)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			// The rendered candidate no longer parses under the
			// configured limits (e.g. reparenting pushed it past the
			// depth cap). That is a verification failure of the
			// candidate, not an operational error of the call.
			return fail(Unfixable{RuleID: targetedIDs(rep)[0],
				Reason: "repaired candidate failed to re-parse: " + err.Error()}), nil
		}

		// No rule outside the registry may get worse than this round's
		// input: those we could not fix next round anyway, so fail fast.
		for _, id := range core.RuleIDs() {
			if strategyFor(id) != nil {
				continue
			}
			if outRep.RuleHits[id] > rep.RuleHits[id] {
				return fail(Unfixable{RuleID: id, Reason: fmt.Sprintf(
					"repair would introduce %d new finding(s)",
					outRep.RuleHits[id]-rep.RuleHits[id])}), nil
			}
		}
		if !anyTargeted(outRep) {
			// Converged: every strategy-covered rule is at zero, and by
			// the per-round check above no other rule ever increased, so
			// the output's hits are bounded by the input's rule for rule.
			r.Output = out
			r.Applied = applied
			r.RemainingHits = outRep.RuleHits
			r.Unfixable = nil
			observeRepair(r, applied)
			return r, nil
		}
		if len(fixes) == 0 || bytes.Equal(out, cur) {
			return fail(remainingUnfixable(outRep, "no strategy can make further progress")...), nil
		}
		if round == maxRounds {
			return fail(remainingUnfixable(outRep, fmt.Sprintf(
				"still violated after %d fix→recheck rounds", maxRounds))...), nil
		}
		cur, res, rep = out, outRes, outRep
	}
}

// applyStrategies runs every registered strategy whose rule has findings
// in rep, in registry order, against res. It returns the recorded fixes.
func applyStrategies(res *htmlparse.Result, rep *core.Report) []Fix {
	var fixes []Fix
	for _, s := range strategies {
		id := s.RuleID()
		if rep.RuleHits[id] == 0 {
			continue
		}
		tx := &Tx{Res: res, Findings: findingsFor(rep, id), ruleID: id}
		s.Apply(tx)
		fixes = append(fixes, tx.fixes...)
	}
	return fixes
}

func findingsFor(rep *core.Report, id string) []core.Finding {
	var out []core.Finding
	for _, f := range rep.Findings {
		if f.RuleID == id {
			out = append(out, f)
		}
	}
	return out
}

func strategyFor(id string) Strategy {
	for _, s := range strategies {
		if s.RuleID() == id {
			return s
		}
	}
	return nil
}

func anyTargeted(rep *core.Report) bool {
	for _, s := range strategies {
		if rep.RuleHits[s.RuleID()] > 0 {
			return true
		}
	}
	return false
}

func targetedIDs(rep *core.Report) []string {
	var out []string
	for _, s := range strategies {
		if rep.RuleHits[s.RuleID()] > 0 {
			out = append(out, s.RuleID())
		}
	}
	return out
}

func remainingUnfixable(rep *core.Report, reason string) []Unfixable {
	var out []Unfixable
	for _, id := range targetedIDs(rep) {
		out = append(out, Unfixable{RuleID: id, Reason: reason})
	}
	return out
}
