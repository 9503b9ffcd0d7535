// Package core implements the security-relevant HTML specification
// violation catalogue of Hantke & Stock (IMC '22), Table 1: twenty
// checks across four problem groups, each defined over a single
// instrumented parse (internal/htmlparse). This package is the paper's
// primary contribution — the measurement rules — while the rest of the
// repository provides the substrates to run them at scale.
package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Group classifies a violation by its security influence (paper §3.2).
type Group string

const (
	// DataExfiltration problems are used to exfiltrate secret information.
	DataExfiltration Group = "DE"
	// DataManipulation problems are used to manipulate content.
	DataManipulation Group = "DM"
	// HTMLFormatting problems enable mutation XSS.
	HTMLFormatting Group = "HF"
	// FilterBypass problems bypass HTML filters and WAFs.
	FilterBypass Group = "FB"
)

// Category separates the two violation types of paper §3.2.
type Category string

const (
	// DefinitionViolation: the spec's definition and the parsing process
	// contradict each other; the parser passes no error state.
	DefinitionViolation Category = "definition"
	// ParsingError: the parser passes a named error state in the tokenizer
	// or tree builder and silently repairs.
	ParsingError Category = "parsing"
)

// Rule is one violation check. Rules run independently of each other over
// the same parse, exactly as the paper's framework runs its rules.
type Rule struct {
	// ID is the paper's identifier, e.g. "DE3_1" or "FB2".
	ID string
	// Name is the human-readable title from Table 1.
	Name     string
	Group    Group
	Category Category
	// AutoFixable marks violations the paper's §4.4 analysis classifies as
	// automatically repairable (FB and DM groups).
	AutoFixable bool
	// Doc is a one-paragraph description of the attack the violation
	// enables, with the paper section it comes from.
	Doc string
	// Stream returns fresh per-document hook state. Every rule is driven
	// through its hooks by the one pass that Checker.Check, CheckContext,
	// CheckTree and CheckParsed share, so one implementation serves every
	// entry point. A rule without Stream reports nothing.
	Stream func() RuleStream
}

// RuleStream is the per-document state of one rule: four hooks over the
// one instrumented parse (paper §3.2). Hooks are optional; a nil hook is
// skipped. The checker calls
//   - Token for every start and end tag, Error once per parse error and
//     Event once per tree-construction event, each as the parse reaches
//     it (the order of htmlparse.Observer): tags and events in document
//     order, the tokenizer's errors in input order, interleaved with the
//     tree builder's;
//   - Element once per element of the finished tree, in one shared
//     pre-order walk of the document, after the parse. The walk is
//     skipped when no rule of the checker has an Element hook.
//
// CheckParsed replays a recorded parse instead (tags, then errors, then
// events); a rule with one hook sees the same calls in the same order.
//
// The token (including its attribute array), the event and the node are
// only valid for the duration of the call. Hooks append via emit and keep
// O(1) state of their own.
type RuleStream struct {
	Token   func(t *htmlparse.Token, emit func(Finding))
	Error   func(e htmlparse.ParseError, emit func(Finding))
	Event   func(e *htmlparse.TreeEvent, emit func(Finding))
	Element func(n *htmlparse.Node, emit func(Finding))
}

// Finding is one observed violation instance.
type Finding struct {
	RuleID string
	// Pos is where the finding is. A rule sets only the Offset; the
	// report resolves Line and Col.
	Pos      htmlparse.Position
	Evidence string
}

func (f Finding) String() string {
	if f.Evidence != "" {
		return fmt.Sprintf("%s at %s: %s", f.RuleID, f.Pos, f.Evidence)
	}
	return fmt.Sprintf("%s at %s", f.RuleID, f.Pos)
}

// Page bundles everything the rules may inspect about one document.
type Page struct {
	// Result is the instrumented parse.
	*htmlparse.Result
	// URL is the page's address, for reporting only.
	URL string
}

// Rules returns the complete violation catalogue in Table 1 order
// (sub-violations expanded). The returned slice is freshly allocated; the
// Rule values are shared and must not be mutated.
func Rules() []Rule {
	return []Rule{
		ruleDE1, ruleDE2, ruleDE3_1, ruleDE3_2, ruleDE3_3, ruleDE4,
		ruleDM1, ruleDM2_1, ruleDM2_2, ruleDM2_3, ruleDM3,
		ruleHF1, ruleHF2, ruleHF3, ruleHF4, ruleHF5_1, ruleHF5_2, ruleHF5_3,
		ruleFB1, ruleFB2,
	}
}

// RuleByID returns the rule with the given ID.
func RuleByID(id string) (Rule, bool) {
	for _, r := range Rules() {
		if r.ID == id {
			return r, true
		}
	}
	return Rule{}, false
}

// ParseRuleIDs splits a comma-separated list of rule IDs, as the -rules
// flags take it, skipping empty items. It fails on the first ID that is
// not in the catalogue (IDs are case-sensitive), naming it.
func ParseRuleIDs(list string) ([]string, error) {
	var ids []string
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if _, ok := RuleByID(id); !ok {
			return nil, fmt.Errorf("unknown rule ID %q", id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// RuleIDs returns all rule IDs in catalogue order.
func RuleIDs() []string {
	rules := Rules()
	ids := make([]string, len(rules))
	for i, r := range rules {
		ids[i] = r.ID
	}
	return ids
}

// GroupOf returns the group of a rule ID ("DE3_1" -> DE). Unknown IDs map
// to an empty group.
func GroupOf(id string) Group {
	if len(id) < 2 {
		return ""
	}
	switch id[:2] {
	case "DE":
		return DataExfiltration
	case "DM":
		return DataManipulation
	case "HF":
		return HTMLFormatting
	case "FB":
		return FilterBypass
	}
	return ""
}

// tokenStream wraps a stateless per-token hook as a Stream constructor.
func tokenStream(hook func(*htmlparse.Token, func(Finding))) func() RuleStream {
	return func() RuleStream { return RuleStream{Token: hook} }
}

// errorStream builds the Stream hook of a rule whose findings are exactly
// the parse errors carrying one code.
func errorStream(id string, code htmlparse.ErrorCode) func() RuleStream {
	hook := func(e htmlparse.ParseError, emit func(Finding)) {
		if e.Code == code {
			emit(Finding{RuleID: id, Pos: htmlparse.Position{Offset: e.Pos}, Evidence: e.Detail})
		}
	}
	return func() RuleStream { return RuleStream{Error: hook} }
}

// eventStream builds the Stream hook of a rule whose findings are the
// tree events of the given kinds that match (nil matches every event).
func eventStream(id string, match func(*htmlparse.TreeEvent) bool, kinds ...htmlparse.EventKind) func() RuleStream {
	hook := func(e *htmlparse.TreeEvent, emit func(Finding)) {
		if slices.Contains(kinds, e.Kind) && (match == nil || match(e)) {
			emit(Finding{RuleID: id, Pos: htmlparse.Position{Offset: e.Pos}, Evidence: e.Detail})
		}
	}
	return func() RuleStream { return RuleStream{Event: hook} }
}
