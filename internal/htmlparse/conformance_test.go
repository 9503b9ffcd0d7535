package htmlparse

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Conformance tests in the html5lib-tests tree-construction format:
//
//	#data
//	<input markup>
//	#errors
//	(ignored; this project tracks errors by spec name, not count)
//	#document-fragment   (optional; context element for fragment cases)
//	div
//	#document
//	| <html>
//	|   <head>
//	...
//
// The cases live under testdata/tree-construction/*.dat. They are authored
// for this project (html5lib's own corpus is not vendored), but the format
// compatibility means upstream .dat files drop in unchanged.

type conformanceCase struct {
	file     string
	line     int
	data     string
	fragment string
	document string
	errors   []string
}

func parseDatFile(t *testing.T, path string) []conformanceCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []conformanceCase
	lines := strings.Split(string(raw), "\n")
	var cur *conformanceCase
	section := ""
	flush := func() {
		if cur != nil && cur.data != "" {
			cur.data = strings.TrimSuffix(cur.data, "\n")
			cur.document = strings.TrimSuffix(cur.document, "\n")
			cases = append(cases, *cur)
		}
		cur = nil
	}
	for i, line := range lines {
		switch {
		case line == "#data":
			flush()
			cur = &conformanceCase{file: filepath.Base(path), line: i + 1}
			section = "data"
		case line == "#errors":
			section = "errors"
		case line == "#document-fragment":
			section = "fragment"
		case line == "#document":
			section = "document"
		default:
			if cur == nil {
				continue
			}
			switch section {
			case "data":
				cur.data += line + "\n"
			case "errors":
				if strings.TrimSpace(line) != "" {
					cur.errors = append(cur.errors, strings.TrimSpace(line))
				}
			case "fragment":
				if strings.TrimSpace(line) != "" {
					cur.fragment = strings.TrimSpace(line)
				}
			case "document":
				if line != "" {
					cur.document += line + "\n"
				}
			}
		}
	}
	flush()
	return cases
}

func TestTreeConstructionConformance(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "tree-construction", "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no conformance data files")
	}
	total := 0
	for _, file := range files {
		cases := parseDatFile(t, file)
		if len(cases) == 0 {
			t.Fatalf("%s: no cases parsed", file)
		}
		total += len(cases)
		for _, tc := range cases {
			name := fmt.Sprintf("%s:%d", tc.file, tc.line)
			t.Run(name, func(t *testing.T) {
				var res *Result
				var err error
				if tc.fragment != "" {
					res, err = ParseFragment([]byte(tc.data), tc.fragment)
				} else {
					res, err = Parse([]byte(tc.data))
				}
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				got := strings.TrimSpace(dumpTree(res.Doc))
				want := strings.TrimSpace(tc.document)
				if got != want {
					t.Fatalf("input %q\n--- got ---\n%s\n--- want ---\n%s", tc.data, got, want)
				}
				// When the case declares expected error names, every one
				// must have been recorded (extra errors are fine — the
				// html5lib format historically under-counts).
				for _, wantErr := range tc.errors {
					if !hasError(res, ErrorCode(wantErr)) {
						t.Errorf("expected error %q not recorded; got %v", wantErr, res.Errors)
					}
				}
			})
		}
	}
	if total < 40 {
		t.Fatalf("conformance corpus too small: %d cases", total)
	}
}
