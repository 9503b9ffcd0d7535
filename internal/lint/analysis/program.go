package analysis

import (
	"go/types"
)

// Program is the whole-run view the driver builds before any analyzer
// runs: every loaded package, the //hv: directive table, the
// type-backed call graph and per-function escape/retention summaries.
// Packages arrive in dependency order, so by the time an analyzer's Run
// sees a package, the program-level tables already cover everything it
// imports.
type Program struct {
	Packages []*Package

	byPath     map[string]*Package
	directives map[string][]Directive
	calls      map[string][]CallEdge
	summaries  map[string]*FuncSummary

	// driver diagnostics produced while building (malformed //hv:
	// directives), merged into the run's output.
	diags []Diagnostic
}

// BuildProgram assembles the program tables over pkgs. Run calls it;
// tests that drive analyzers manually may too.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages:   pkgs,
		byPath:     make(map[string]*Package, len(pkgs)),
		directives: make(map[string][]Directive),
		calls:      make(map[string][]CallEdge),
		summaries:  make(map[string]*FuncSummary),
	}
	for _, pkg := range pkgs {
		prog.byPath[pkg.ImportPath] = pkg
	}
	collect := func(d Diagnostic) { prog.diags = append(prog.diags, d) }
	for _, pkg := range pkgs {
		scanDirectives(pkg, func(key string, d Directive) {
			prog.directives[key] = append(prog.directives[key], d)
		}, collect)
		prog.buildCallGraph(pkg)
	}
	// Summaries after directives: the taint engine consults //hv:view
	// marks, and dependency order makes callee summaries available to
	// their importers.
	for _, pkg := range pkgs {
		prog.summarizePackage(pkg)
	}
	return prog
}

// Package returns the loaded target package with the given import path,
// or nil when the path is outside the run.
func (prog *Program) Package(importPath string) *Package {
	return prog.byPath[importPath]
}

// HasDirective reports whether the function or field keyed by key
// carries a //hv:<verb> directive.
func (prog *Program) HasDirective(key, verb string) bool {
	for _, d := range prog.directives[key] {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// DirectiveKeys returns every key carrying a //hv:<verb> directive, for
// analyzers that iterate roots (alloczone's hotpath set).
func (prog *Program) DirectiveKeys(verb string) []string {
	var out []string
	for key, ds := range prog.directives {
		for _, d := range ds {
			if d.Verb == verb {
				out = append(out, key)
				break
			}
		}
	}
	return out
}

// Summary returns the escape/retention summary of the function keyed by
// key, or nil when the function is outside the loaded packages (its
// body was never seen, e.g. standard library).
func (prog *Program) Summary(key string) *FuncSummary {
	return prog.summaries[key]
}

// SummaryOf is Summary through a types.Func.
func (prog *Program) SummaryOf(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return prog.summaries[ObjKey(fn)]
}

// IsViewFunc reports whether fn is marked //hv:view.
func (prog *Program) IsViewFunc(fn *types.Func) bool {
	return fn != nil && prog.HasDirective(ObjKey(fn), "view")
}
