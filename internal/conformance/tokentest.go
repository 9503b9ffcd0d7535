package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Tokenizer conformance cases in the html5lib-tests .test JSON format:
//
//	{"tests": [{
//	  "description": "...",
//	  "input": "<div id=x>",
//	  "output": [["StartTag", "div", {"id": "x"}]],
//	  "errors": [{"code": "missing-attribute-value", "line": 1, "col": 9}],
//	  "initialStates": ["Data state"],
//	  "lastStartTag": "...",
//	  "doubleEscaped": false
//	}]}
//
// Output entries: ["Character", data], ["StartTag", name, {attrs}] with
// an optional trailing true for self-closing, ["EndTag", name],
// ["Comment", data], ["DOCTYPE", name, publicID, systemID, correct].
// A test with N initialStates expands into N runnable cases. As in the
// upstream harness, the tokenizer runs without the tree builder's
// content-model feedback (AutoRaw off): raw-text states are entered via
// initialStates + lastStartTag, never by tag name.
//
// Deviations from upstream, documented: the input passes through the
// full input stream preprocessor first (so control-character /
// noncharacter stream errors appear in the expected error list), and a
// doctype's absent and empty public/system identifiers both serialize
// as null. Error line/col are compared only when the fixture provides
// them (cmd/hvconform -update always writes them).

// tokenTestFile is the on-disk JSON shape.
type tokenTestFile struct {
	Tests []tokenTestJSON `json:"tests"`
}

type tokenTestJSON struct {
	Description   string            `json:"description"`
	Input         string            `json:"input"`
	Output        []json.RawMessage `json:"output"`
	Errors        []ExpectedError   `json:"errors,omitempty"`
	InitialStates []string          `json:"initialStates,omitempty"`
	LastStartTag  string            `json:"lastStartTag,omitempty"`
	DoubleEscaped bool              `json:"doubleEscaped,omitempty"`
}

// ExpectedError is one entry of a .test case's "errors" list.
type ExpectedError struct {
	Code string `json:"code"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
}

// TokenCase is one runnable tokenizer conformance case (a .test entry
// specialized to a single initial state).
type TokenCase struct {
	File         string
	Index        int // 0-based position in the file's tests array
	Description  string
	Input        string
	Output       []json.RawMessage
	Errors       []ExpectedError
	InitialState string
	LastStartTag string
}

// ID returns the case's skiplist key, "file.test:description@state".
// Skiplist entries may also target "file.test:description" to skip the
// case in every initial state.
func (c *TokenCase) ID() string {
	return fmt.Sprintf("%s:%s@%s", c.File, c.Description, c.InitialState)
}

// BaseID returns the state-independent skiplist key.
func (c *TokenCase) BaseID() string {
	return fmt.Sprintf("%s:%s", c.File, c.Description)
}

// ParseTestFile reads one .test fixture file, expanding each test into
// one TokenCase per initial state.
func ParseTestFile(path string) ([]TokenCase, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f tokenTestFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := filepath.Base(path)
	var cases []TokenCase
	for i, t := range f.Tests {
		if t.Description == "" {
			return nil, fmt.Errorf("%s: test %d has no description (needed for skiplist keys)", path, i)
		}
		input := t.Input
		output := t.Output
		if t.DoubleEscaped {
			input = unescapeDouble(input)
			output, err = unescapeOutputs(output)
			if err != nil {
				return nil, fmt.Errorf("%s: test %q: %w", path, t.Description, err)
			}
		}
		states := t.InitialStates
		if len(states) == 0 {
			states = []string{"Data state"}
		}
		for _, st := range states {
			cases = append(cases, TokenCase{
				File: base, Index: i, Description: t.Description,
				Input: input, Output: output, Errors: t.Errors,
				InitialState: st, LastStartTag: t.LastStartTag,
			})
		}
	}
	return cases, nil
}

// unescapeDouble resolves literal \uXXXX sequences (the doubleEscaped
// convention for inputs that JSON cannot carry directly). Surrogate
// pairs combine; lone surrogates become U+FFFD, matching what the Go
// string type can represent.
func unescapeDouble(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' && i+5 < len(s) && s[i+1] == 'u' {
			hi, err := strconv.ParseUint(s[i+2:i+6], 16, 32)
			if err == nil {
				i += 6
				r := rune(hi)
				if utf16.IsSurrogate(r) && i+5 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
					if lo, err2 := strconv.ParseUint(s[i+2:i+6], 16, 32); err2 == nil {
						if d := utf16.DecodeRune(r, rune(lo)); d != utf8.RuneError {
							b.WriteRune(d)
							i += 6
							continue
						}
					}
				}
				if utf16.IsSurrogate(r) {
					r = utf8.RuneError
				}
				b.WriteRune(r)
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// unescapeOutputs applies unescapeDouble to the string payloads of
// expected token tuples.
func unescapeOutputs(outs []json.RawMessage) ([]json.RawMessage, error) {
	res := make([]json.RawMessage, len(outs))
	for i, raw := range outs {
		var tup []any
		if err := json.Unmarshal(raw, &tup); err != nil {
			return nil, err
		}
		for j, v := range tup {
			switch x := v.(type) {
			case string:
				if j > 0 { // index 0 is the token kind
					tup[j] = unescapeDouble(x)
				}
			case map[string]any:
				m := make(map[string]any, len(x))
				for k, av := range x {
					if s, ok := av.(string); ok {
						m[unescapeDouble(k)] = unescapeDouble(s)
					} else {
						m[k] = av
					}
				}
				tup[j] = m
			}
		}
		enc, err := json.Marshal(tup)
		if err != nil {
			return nil, err
		}
		res[i] = enc
	}
	return res, nil
}

// RunTokenizer executes the tokenizer over the case's input and returns
// the observed token tuples (in the .test output shape) and errors.
// Parse failures (non-UTF-8 input) surface as an error.
func RunTokenizer(c *TokenCase) (outs []json.RawMessage, errs []ExpectedError, err error) {
	pre, err := htmlparse.Preprocess([]byte(c.Input))
	if err != nil {
		return nil, nil, err
	}
	z := htmlparse.NewTokenizer(pre.Input)
	z.AutoRaw = false
	if c.InitialState != "" && !z.SetTestState(c.InitialState, c.LastStartTag) {
		return nil, nil, fmt.Errorf("unknown initial state %q", c.InitialState)
	}
	var toks []htmlparse.Token
	for {
		t := z.Next()
		if t.Type == htmlparse.EOFToken {
			break
		}
		toks = append(toks, t)
	}
	outs, err = encodeTokens(toks)
	if err != nil {
		return nil, nil, err
	}
	perrs := append(append([]htmlparse.ParseError(nil), pre.Errors...), z.Errors()...)
	pos := make([]htmlparse.Position, len(perrs))
	for i, e := range perrs {
		pos[i].Offset = e.Pos
	}
	htmlparse.ResolvePositions(pre.Input, pos, func(p *htmlparse.Position) *htmlparse.Position { return p })
	for i, e := range perrs {
		errs = append(errs, ExpectedError{Code: string(e.Code), Line: pos[i].Line, Col: pos[i].Col})
	}
	return outs, errs, nil
}

// encodeTokens renders tokens as .test output tuples, coalescing
// adjacent character tokens as the html5lib harness does.
func encodeTokens(toks []htmlparse.Token) ([]json.RawMessage, error) {
	var outs []json.RawMessage
	var text strings.Builder
	flush := func() error {
		if text.Len() == 0 {
			return nil
		}
		enc, err := json.Marshal([]any{"Character", text.String()})
		if err != nil {
			return err
		}
		outs = append(outs, enc)
		text.Reset()
		return nil
	}
	for _, t := range toks {
		if t.Type == htmlparse.CharacterToken {
			text.WriteString(t.Data)
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		var tup []any
		switch t.Type {
		case htmlparse.StartTagToken:
			attrs := map[string]string{}
			for _, a := range t.Attr {
				if !a.Duplicate {
					attrs[a.Name] = a.Value
				}
			}
			tup = []any{"StartTag", t.Data, attrs}
			if t.SelfClosing {
				tup = append(tup, true)
			}
		case htmlparse.EndTagToken:
			tup = []any{"EndTag", t.Data}
		case htmlparse.CommentToken:
			tup = []any{"Comment", t.Data}
		case htmlparse.DoctypeToken:
			name := any(t.Data)
			if t.Data == "" {
				name = nil
			}
			pub, sys := any(t.PublicID), any(t.SystemID)
			if t.PublicID == "" {
				pub = nil
			}
			if t.SystemID == "" {
				sys = nil
			}
			tup = []any{"DOCTYPE", name, pub, sys, !t.ForceQuirks}
		default:
			continue
		}
		enc, err := json.Marshal(tup)
		if err != nil {
			return nil, err
		}
		outs = append(outs, enc)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return outs, nil
}

// canonicalTuple renders one output tuple in a stable comparison form
// (attribute maps sorted by name).
func canonicalTuple(raw json.RawMessage) (string, error) {
	var tup []any
	if err := json.Unmarshal(raw, &tup); err != nil {
		return "", err
	}
	var b strings.Builder
	for i, v := range tup {
		if i > 0 {
			b.WriteString(" ")
		}
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString("{")
			for j, k := range keys {
				if j > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%q=%q", k, x[k])
			}
			b.WriteString("}")
		default:
			fmt.Fprintf(&b, "%#v", v)
		}
	}
	return b.String(), nil
}

// diffTokens compares expected and observed tuples, returning "" when
// they agree and a human-readable diff otherwise.
func diffTokens(want, got []json.RawMessage) (string, error) {
	w := make([]string, len(want))
	g := make([]string, len(got))
	for i, raw := range want {
		s, err := canonicalTuple(raw)
		if err != nil {
			return "", fmt.Errorf("bad expected tuple %s: %w", raw, err)
		}
		w[i] = s
	}
	for i, raw := range got {
		s, err := canonicalTuple(raw)
		if err != nil {
			return "", err
		}
		g[i] = s
	}
	if len(w) == len(g) {
		same := true
		for i := range w {
			if w[i] != g[i] {
				same = false
				break
			}
		}
		if same {
			return "", nil
		}
	}
	return fmt.Sprintf("--- want tokens ---\n%s\n--- got tokens ---\n%s",
		strings.Join(w, "\n"), strings.Join(g, "\n")), nil
}

// diffErrors compares expected and observed error lists. Expected
// entries without line/col match on code alone; entries with positions
// must match exactly. Order is significant.
func diffErrors(want, got []ExpectedError) string {
	ok := len(want) == len(got)
	if ok {
		for i := range want {
			if want[i].Code != got[i].Code {
				ok = false
				break
			}
			if (want[i].Line != 0 || want[i].Col != 0) &&
				(want[i].Line != got[i].Line || want[i].Col != got[i].Col) {
				ok = false
				break
			}
		}
	}
	if ok {
		return ""
	}
	fmtList := func(es []ExpectedError) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = fmt.Sprintf("%s@%d:%d", e.Code, e.Line, e.Col)
		}
		return strings.Join(parts, ", ")
	}
	return fmt.Sprintf("--- want errors ---\n%s\n--- got errors ---\n%s", fmtList(want), fmtList(got))
}

// FormatTestFile renders tests back into .test JSON, used by -update.
// Cases are regrouped by file index; initialStates and lastStartTag are
// preserved, doubleEscaped is normalized away. The format carries one
// output per test, so a test whose runs diverge across initial states
// cannot be represented — that is an error, and the author must split
// it into per-state tests.
func FormatTestFile(cases []TokenCase) (string, error) {
	var file tokenTestFile
	byIndex := map[int]*tokenTestJSON{}
	var order []int
	for _, c := range cases {
		t, ok := byIndex[c.Index]
		if !ok {
			t = &tokenTestJSON{
				Description: c.Description, Input: c.Input,
				Output: c.Output, Errors: c.Errors, LastStartTag: c.LastStartTag,
			}
			byIndex[c.Index] = t
			order = append(order, c.Index)
		} else if !sameGolden(t, &c) {
			return "", fmt.Errorf("%s: test %q produces different output per initial state; split it into one test per state", c.File, c.Description)
		}
		if c.InitialState != "Data state" || len(t.InitialStates) > 0 {
			t.InitialStates = append(t.InitialStates, c.InitialState)
		}
	}
	sort.Ints(order)
	for _, i := range order {
		file.Tests = append(file.Tests, *byIndex[i])
	}
	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return "", err
	}
	return string(enc) + "\n", nil
}

// sameGolden reports whether a case's golden sections match the test
// entry already accumulated for its file index.
func sameGolden(t *tokenTestJSON, c *TokenCase) bool {
	if len(t.Output) != len(c.Output) || len(t.Errors) != len(c.Errors) {
		return false
	}
	for i := range t.Output {
		if string(t.Output[i]) != string(c.Output[i]) {
			return false
		}
	}
	for i := range t.Errors {
		if t.Errors[i] != c.Errors[i] {
			return false
		}
	}
	return true
}
