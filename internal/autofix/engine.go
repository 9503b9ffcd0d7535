package autofix

import (
	"bytes"
	"context"
	"fmt"
	"slices"

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

// checker runs the full catalogue for every repair. A Checker is
// read-only once built (each check keeps its state in its own pass), so
// concurrent repairs share it.
var checker = core.NewChecker()

// unrepaired lists, in catalogue order, the rules no strategy covers.
// Verification only requires that these never get worse.
var unrepaired = slices.DeleteFunc(core.RuleIDs(), func(id string) bool {
	return slices.Contains(StrategyRuleIDs(), id)
})

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
//
// Each round is one core.Checker.CheckTree callback over the round's
// input: the input, then each candidate. Inside it the parse is verified
// against the previous round's report, the strategies edit its tree and
// the tree is serialized, so no tree outlives its round and every
// round's node slabs go back to the pooled parser.
func RepairContext(ctx context.Context, input []byte, opts Options) (*Result, error) {
	rs := &rounds{input: input, cur: input, r: &Result{Output: input}}
	for {
		rs.next = nil
		if err := checker.CheckTree(ctx, rs.cur, opts.MaxTreeDepth, rs.round); err != nil {
			if rs.prev == nil || ctx.Err() != nil {
				return nil, err
			}
			// The rendered candidate no longer parses under the
			// configured limits (e.g. reparenting pushed it past the
			// depth cap). That is a verification failure of the
			// candidate, not an operational error of the call.
			rs.fail(Unfixable{RuleID: targetedIDs(rs.prev)[0],
				Reason: "repaired candidate failed to re-parse: " + err.Error()})
		}
		if rs.next == nil {
			observeRepair(rs.r, rs.applied)
			return rs.r, nil
		}
		rs.prevIn, rs.cur = rs.cur, rs.next
	}
}

// rounds is one document's fix→recheck loop: the round's input and the
// previous round's, what the strategies have recorded so far, and the
// Result the rounds settle.
type rounds struct {
	input    []byte
	r        *Result
	origHits map[string]int
	// cur is this round's input; prevIn and prev are the previous
	// round's input and its report (nil before the first candidate).
	cur, prevIn []byte
	prev        *core.Report
	// fixes are the previous round's, applied every round's.
	fixes, applied []Fix
	// next is the candidate this round rendered, nil once the repair
	// has settled.
	next []byte
}

// round is the CheckTree callback of one round: res and rep are the parse
// and report of cur, valid only for the call. It verifies a candidate,
// then, unless the repair has settled, applies the strategies to res and
// renders the next candidate.
func (rs *rounds) round(res *htmlparse.Result, rep *core.Report) {
	if rs.prev == nil {
		rs.origHits = rep.RuleHits
		rs.r.RemainingHits = rep.RuleHits
		if !anyTargeted(rep) {
			// Nothing the registry covers: the no-op result is the input
			// itself, byte for byte (this is what makes a verified repair
			// idempotent — the second pass changes nothing).
			return
		}
	} else if rs.settle(rep) {
		return
	}
	rs.r.Rounds++
	rs.fixes = applyStrategies(res, rep)
	rs.applied = append(rs.applied, rs.fixes...)
	// A candidate's length is close to its input's (within 1.3% on the
	// repair benchmark's documents); the headroom covers that and the
	// implied tags a short page gains, and saves regrowing the buffer.
	rs.next = htmlparse.AppendRender(make([]byte, 0, len(rs.cur)+len(rs.cur)/16+64), res.Doc)
	rs.prev = rep
}

// settle verifies the candidate cur, whose report is rep, against the
// report of the round input it was rendered from. It settles the Result
// and reports true when the repair has converged or failed.
func (rs *rounds) settle(rep *core.Report) bool {
	// No rule outside the registry may get worse than this round's
	// input: those we could not fix next round anyway, so fail fast.
	for _, id := range unrepaired {
		if rep.RuleHits[id] > rs.prev.RuleHits[id] {
			rs.fail(Unfixable{RuleID: id, Reason: fmt.Sprintf(
				"repair would introduce %d new finding(s)",
				rep.RuleHits[id]-rs.prev.RuleHits[id])})
			return true
		}
	}
	switch {
	case !anyTargeted(rep):
		// Converged: every strategy-covered rule is at zero, and by
		// the per-round check above no other rule ever increased, so
		// the output's hits are bounded by the input's rule for rule.
		rs.r.Output = rs.cur
		rs.r.Applied = rs.applied
		rs.r.RemainingHits = rep.RuleHits
		rs.r.Unfixable = nil
	case len(rs.fixes) == 0 || bytes.Equal(rs.cur, rs.prevIn):
		rs.fail(remainingUnfixable(rep, "no strategy can make further progress")...)
	case rs.r.Rounds == maxRounds:
		rs.fail(remainingUnfixable(rep, fmt.Sprintf(
			"still violated after %d fix→recheck rounds", maxRounds))...)
	default:
		return false
	}
	return true
}

// fail settles the Result as unfixable: the original input, no applied
// fixes and the input's hits.
func (rs *rounds) fail(uf ...Unfixable) {
	rs.r.Output = rs.input
	rs.r.Applied = nil
	rs.r.RemainingHits = rs.origHits
	rs.r.Unfixable = uf
}

// applyStrategies runs every registered strategy whose rule has findings
// in rep, in registry order, against res. It returns the recorded fixes,
// their lines and columns resolved against res.Input.
func applyStrategies(res *htmlparse.Result, rep *core.Report) []Fix {
	var fixes []Fix
	for _, s := range strategies {
		if rep.RuleHits[s.RuleID] == 0 {
			continue
		}
		tx := &Tx{Res: res, Findings: findingsFor(rep, s.RuleID), ruleID: s.RuleID}
		s.Apply(tx)
		fixes = append(fixes, tx.fixes...)
	}
	htmlparse.ResolvePositions(res.Input, fixes, func(f *Fix) *htmlparse.Position { return &f.Pos })
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

func anyTargeted(rep *core.Report) bool {
	for _, s := range strategies {
		if rep.RuleHits[s.RuleID] > 0 {
			return true
		}
	}
	return false
}

func targetedIDs(rep *core.Report) []string {
	var out []string
	for _, s := range strategies {
		if rep.RuleHits[s.RuleID] > 0 {
			out = append(out, s.RuleID)
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
