package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Tests over the spec-coverage ledger in speccoverage.go: every emitted
// code must be reachable, the rule mapping must be live, and the ledger
// must stay exhaustive over htmlparse's ErrorCode constants. The hvlint
// specerrors analyzer enforces the reference invariant at lint time;
// these tests are its runtime twin, and cmd/hvconform turns the same
// ledger into the conformance corpus coverage gate.

// TestSpecCoverageProvokesEveryCode proves every emitted code is
// reachable: each row's document must produce its code when parsed.
func TestSpecCoverageProvokesEveryCode(t *testing.T) {
	for _, row := range SpecCoverage() {
		row := row
		t.Run(string(row.Code), func(t *testing.T) {
			res, err := htmlparse.Parse([]byte(row.Doc))
			if err != nil {
				t.Fatalf("Parse(%q): %v", row.Doc, err)
			}
			if !slices.ContainsFunc(res.Errors, func(e htmlparse.ParseError) bool { return e.Code == row.Code }) {
				t.Fatalf("document %q did not provoke %s; got %v", row.Doc, row.Code, res.Errors)
			}
		})
	}
}

// TestSpecCoverageRuleMapping checks the dedicated-rule column: the
// rule exists, is a parsing-error rule, and actually fires on the
// row's document.
func TestSpecCoverageRuleMapping(t *testing.T) {
	for _, row := range SpecCoverage() {
		if row.Rule == "" {
			continue
		}
		r, ok := RuleByID(row.Rule)
		if !ok {
			t.Fatalf("%s maps to unknown rule %q", row.Code, row.Rule)
		}
		if r.Category != ParsingError {
			t.Errorf("%s maps to rule %s with category %q, want %q", row.Code, row.Rule, r.Category, ParsingError)
		}
		rep := mustCheck(t, []byte(row.Doc))
		if !rep.Violated(row.Rule) {
			t.Errorf("rule %s did not fire on %q (violations: %v)", row.Rule, row.Doc, rep.ViolatedIDs())
		}
	}
}

// TestSpecCoverageUnemitted keeps the unemitted list honest: none of
// its codes may appear in SpecCoverage, every justification must be
// non-empty, and none of the codes may actually be provokable by the
// emitted rows' documents.
func TestSpecCoverageUnemitted(t *testing.T) {
	emitted := make(map[htmlparse.ErrorCode]bool)
	for _, row := range SpecCoverage() {
		if emitted[row.Code] {
			t.Errorf("code %s listed twice in SpecCoverage", row.Code)
		}
		emitted[row.Code] = true
	}
	for code, why := range UnemittedCodes() {
		if emitted[code] {
			t.Errorf("code %s is in both SpecCoverage and UnemittedCodes", code)
		}
		if why == "" {
			t.Errorf("code %s has no justification", code)
		}
	}
}

// TestSpecCoverageNamesAreWellFormed pins the WHATWG naming contract:
// every code is unique kebab-case, since report output and the
// violation tables key on these strings.
func TestSpecCoverageNamesAreWellFormed(t *testing.T) {
	kebab := regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)
	seen := make(map[htmlparse.ErrorCode]bool)
	check := func(code htmlparse.ErrorCode) {
		if !kebab.MatchString(string(code)) {
			t.Errorf("code %q is not kebab-case", code)
		}
		if seen[code] {
			t.Errorf("code value %q declared twice", code)
		}
		seen[code] = true
	}
	for _, row := range SpecCoverage() {
		check(row.Code)
	}
	for code := range UnemittedCodes() {
		check(code)
	}
}

// TestSpecCoverageLedgerIsExhaustive parses htmlparse/errors.go and
// fails if any ErrorCode constant is missing from the ledger — the
// runtime twin of the hvlint specerrors analyzer.
func TestSpecCoverageLedgerIsExhaustive(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../htmlparse/errors.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse errors.go: %v", err)
	}
	covered := make(map[string]bool)
	for _, row := range SpecCoverage() {
		covered[string(row.Code)] = true
	}
	for code := range UnemittedCodes() {
		covered[string(code)] = true
	}
	declared := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != len(vs.Names) {
				continue
			}
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "ErrorCode" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("constant %s is not a string literal", name.Name)
				}
				value := lit.Value[1 : len(lit.Value)-1] // strip quotes
				declared++
				if !covered[value] {
					t.Errorf("htmlparse.%s (%q) is missing from the spec coverage ledger; add it to SpecCoverage (with a provoking document) or UnemittedCodes", name.Name, value)
				}
			}
		}
	}
	if want := len(SpecCoverage()) + len(UnemittedCodes()); declared != want {
		t.Errorf("errors.go declares %d ErrorCode constants, ledger has %d rows", declared, want)
	}
}
