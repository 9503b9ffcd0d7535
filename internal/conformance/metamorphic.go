package conformance

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// The metamorphic layer: parser invariants that need no external oracle.
// Where the fixture corpus checks the parser against goldens a human
// vetted once, these four relations must hold for EVERY input, so fuzzing
// can explore inputs no fixture author thought of:
//
//  1. RenderParseFixpoint — serialize→reparse is a fixpoint outside the
//     documented raw-text hazards.
//  2. TruncationStability — tokenizer-stage errors well before a
//     truncation point are identical with and without the tail.
//  3. AttrReorderInvariance — the checker's RuleHits are deterministic
//     and unchanged when a canonical document's attributes are reordered.
//  4. DecoderAgreement — the windows-1252 fallback decoder always yields
//     valid UTF-8 and agrees with UTF-8 on ASCII input.
//
// Each invariant returns nil when it holds; metamorphic_test.go runs
// them over seeded tables and as go-native fuzz targets.

// RenderParseFixpoint checks that render(parse(render(parse(x)))) ==
// render(parse(x)). Inputs that hit a documented serialization hazard
// (see rawTextHazard) report skipped=true instead of a verdict.
func RenderParseFixpoint(input []byte) (skipped bool, err error) {
	res1, perr := htmlparse.Parse(input)
	if perr != nil {
		return true, nil // non-UTF-8 input: outside the serializer's domain
	}
	if rawTextHazard(res1) {
		return true, nil
	}
	out1 := htmlparse.RenderString(res1.Doc)
	res2, perr := htmlparse.Parse([]byte(out1))
	if perr != nil {
		return false, fmt.Errorf("render of %q is not parseable: %v", input, perr)
	}
	out2 := htmlparse.RenderString(res2.Doc)
	if out1 != out2 {
		return false, fmt.Errorf("fixpoint broken for %q:\n out1 %q\n out2 %q", input, out1, out2)
	}
	return false, nil
}

// rawTextHazard reports whether a parse hit one of the constructs whose
// serialization is not round-trippable by design (the caveat documented
// in htmlparse/serialize.go): a plaintext element, a script whose
// content re-enters the comment-like double-escaped state, an element
// nested inside a same-named ancestor that a straight-line re-parse
// would split apart (an a/nobr/button within another — only reachable
// by foster parenting around a table, whose formatting marker shields
// the outer element from the adoption agency), or an implied p/br
// created by a stray end tag while foreign content is open.
func rawTextHazard(res *htmlparse.Result) bool {
	if res.Doc.Find(func(n *htmlparse.Node) bool {
		if n.Type != htmlparse.ElementNode || n.Namespace != htmlparse.NamespaceHTML {
			return false
		}
		switch n.Data {
		case "plaintext":
			return true
		case "a", "nobr", "button":
			if n.Ancestor(n.Data) != nil {
				return true
			}
		}
		return n.Data == "script" && strings.Contains(n.Text(), "<!--")
	}) != nil {
		return true
	}
	hasForeign := res.Doc.Find(func(n *htmlparse.Node) bool {
		return n.Type == htmlparse.ElementNode && n.Namespace != htmlparse.NamespaceHTML
	}) != nil
	if !hasForeign {
		return false
	}
	for _, e := range res.Errors {
		if e.Code == htmlparse.ErrUnexpectedEndTag && (e.Detail == "p" || e.Detail == "br") {
			return true
		}
	}
	return false
}

// truncationMargin is the stability horizon in bytes. Tokenizer-stage
// errors are emitted at the position where they are detected, and
// detection looks ahead at most ~40 bytes (the longest named character
// reference, doctype keywords, "[CDATA["), so an error detected more
// than 64 bytes before a truncation point cannot depend on the removed
// tail.
const truncationMargin = 64

// TruncationStability checks that truncating the input does not perturb
// tokenizer-stage errors detected well before the cut: the full parse
// and the truncated parse must report exactly the same such errors.
// Tree-construction-stage errors are excluded (they are attributed to a
// token's start position when the token *completes*, so an arbitrarily
// long token breaks prefix locality); the classification lives in
// htmlparse.ErrorCode.TreeStage. cut is clamped onto a rune boundary.
func TruncationStability(input []byte, cut int) error {
	if cut < 0 {
		cut = 0
	}
	if cut > len(input) {
		cut = len(input)
	}
	for cut > 0 && cut < len(input) && !utf8.RuneStart(input[cut]) {
		cut--
	}
	full, err := htmlparse.Parse(input)
	if err != nil {
		return nil // non-UTF-8 input is rejected before tokenization
	}
	trunc, err := htmlparse.Parse(input[:cut])
	if err != nil {
		return fmt.Errorf("prefix of valid UTF-8 rejected: %v", err)
	}
	// Offsets are in preprocessed-stream coordinates; preprocessing only
	// shrinks (CRLF→LF, lone CR→LF), so preprocess(input[:cut]) is a
	// byte prefix of preprocess(input) and its length bounds the stable
	// region in those coordinates.
	pre, err := htmlparse.Preprocess(input[:cut])
	if err != nil {
		return fmt.Errorf("preprocess of prefix rejected: %v", err)
	}
	horizon := len(pre.Input) - truncationMargin
	stable := func(errs []htmlparse.ParseError) []string {
		var out []string
		for _, e := range errs {
			if !e.Code.TreeStage() && e.Pos < horizon {
				out = append(out, fmt.Sprintf("%s@%d", e.Code, e.Pos))
			}
		}
		return out
	}
	if d := diffStringSlices(stable(full.Errors), stable(trunc.Errors)); d != "" {
		return fmt.Errorf("stable errors diverge at cut=%d for %q:\n%s", cut, input, d)
	}
	return nil
}

// AttrReorderInvariance checks two properties of the checker over the
// canonical render of any input: Check is deterministic (two runs give
// identical RuleHits), and reversing every element's attribute order
// leaves RuleHits unchanged. The reorder happens on the parsed tree of
// the canonical render — elements there carry no duplicate attributes,
// so reversal cannot change which value wins — and the raw-syntax rules
// (FB1/FB2 et al.) see well-formed markup either way.
func AttrReorderInvariance(input []byte) error {
	res, perr := htmlparse.Parse(input)
	if perr != nil {
		return nil
	}
	if rawTextHazard(res) {
		// The canonical render is only canonical when it re-parses to the
		// same tree; the documented serialization hazards (plaintext,
		// comment-like script, stray p/br end tags under foreign content)
		// break that, so the h1-vs-h2 comparison below would be comparing
		// two different trees, not two attribute orders.
		return nil
	}
	h1 := htmlparse.RenderString(res.Doc)
	checker := core.NewChecker()
	rep1, err := checker.Check([]byte(h1))
	if err != nil {
		return fmt.Errorf("check of canonical render %q: %v", h1, err)
	}
	rep1b, err := checker.Check([]byte(h1))
	if err != nil {
		return err
	}
	if d := diffRuleHits(rep1.RuleHits, rep1b.RuleHits); d != "" {
		return fmt.Errorf("checker not deterministic on %q:\n%s", h1, d)
	}
	res2, perr := htmlparse.Parse([]byte(h1))
	if perr != nil {
		return fmt.Errorf("canonical render %q not parseable: %v", h1, perr)
	}
	reverseAttrs(res2.Doc)
	h2 := htmlparse.RenderString(res2.Doc)
	rep2, err := checker.Check([]byte(h2))
	if err != nil {
		return fmt.Errorf("check of reordered render %q: %v", h2, err)
	}
	if d := diffRuleHits(rep1.RuleHits, rep2.RuleHits); d != "" {
		return fmt.Errorf("rule hits changed under attribute reorder:\n h1 %q\n h2 %q\n%s", h1, h2, d)
	}
	return nil
}

func reverseAttrs(n *htmlparse.Node) {
	for i, j := 0, len(n.Attr)-1; i < j; i, j = i+1, j-1 {
		n.Attr[i], n.Attr[j] = n.Attr[j], n.Attr[i]
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		reverseAttrs(c)
	}
}

func diffRuleHits(a, b map[string]int) string {
	var diffs []string
	for id, n := range a {
		if b[id] != n {
			diffs = append(diffs, fmt.Sprintf("  %s: %d vs %d", id, n, b[id]))
		}
	}
	for id, n := range b {
		if _, ok := a[id]; !ok && n != 0 {
			diffs = append(diffs, fmt.Sprintf("  %s: 0 vs %d", id, n))
		}
	}
	return strings.Join(diffs, "\n")
}

// win1252 maps bytes 0x80–0x9F to their windows-1252 code points per the
// WHATWG encoding index (the five unassigned bytes pass through as C1
// controls, as the spec's index prescribes). Bytes below 0x80 and from
// 0xA0 up map identically to U+0000–U+007F and U+00A0–U+00FF.
var win1252 = [32]rune{
	0x20AC, 0x0081, 0x201A, 0x0192, 0x201E, 0x2026, 0x2020, 0x2021,
	0x02C6, 0x2030, 0x0160, 0x2039, 0x0152, 0x008D, 0x017D, 0x008F,
	0x0090, 0x2018, 0x2019, 0x201C, 0x201D, 0x2022, 0x2013, 0x2014,
	0x02DC, 0x2122, 0x0161, 0x203A, 0x0153, 0x009D, 0x017E, 0x0178,
}

// DecodeWindows1252 decodes bytes as windows-1252 — the fallback
// encoding the paper's crawl pipeline (and every browser) assumes for
// undeclared legacy content. Total: every byte decodes to exactly one
// code point, so the output is always valid UTF-8.
func DecodeWindows1252(b []byte) string {
	var out strings.Builder
	out.Grow(len(b))
	for _, c := range b {
		switch {
		case c < 0x80:
			out.WriteByte(c)
		case c < 0xA0:
			out.WriteRune(win1252[c-0x80])
		default:
			out.WriteRune(rune(c))
		}
	}
	return out.String()
}

// DecoderAgreement checks the two decoder paths against each other:
// DecodeWindows1252 must always produce valid UTF-8 that the parser
// accepts, and on pure-ASCII input — where the two encodings coincide
// by construction — the windows-1252 parse and the direct UTF-8 parse
// must agree on the error-code sequence and the tree dump.
func DecoderAgreement(input []byte) error {
	decoded := DecodeWindows1252(input)
	if !utf8.ValidString(decoded) {
		return fmt.Errorf("windows-1252 decode of %q is not valid UTF-8", input)
	}
	resW, err := htmlparse.Parse([]byte(decoded))
	if err != nil {
		return fmt.Errorf("windows-1252 decode of %q rejected by parser: %v", input, err)
	}
	for _, c := range input {
		if c >= 0x80 {
			return nil // encodings legitimately diverge outside ASCII
		}
	}
	if decoded != string(input) {
		return fmt.Errorf("windows-1252 decode changed ASCII input %q to %q", input, decoded)
	}
	resU, err := htmlparse.Parse(input)
	if err != nil {
		return fmt.Errorf("ASCII input %q rejected as UTF-8: %v", input, err)
	}
	codes := func(errs []htmlparse.ParseError) []string {
		out := make([]string, len(errs))
		for i, e := range errs {
			out[i] = fmt.Sprintf("%s@%d", e.Code, e.Pos)
		}
		return out
	}
	if d := diffStringSlices(codes(resU.Errors), codes(resW.Errors)); d != "" {
		return fmt.Errorf("decoder paths disagree on errors for %q:\n%s", input, d)
	}
	if du, dw := htmlparse.DumpTree(resU.Doc), htmlparse.DumpTree(resW.Doc); du != dw {
		return fmt.Errorf("decoder paths disagree on tree for %q:\n--- utf8 ---\n%s\n--- win1252 ---\n%s", input, du, dw)
	}
	return nil
}
