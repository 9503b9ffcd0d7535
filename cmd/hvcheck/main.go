// Command hvcheck validates HTML documents against the catalogue of
// security-relevant specification violations (paper Table 1).
//
// Usage:
//
//	hvcheck [flags] [file ...]
//
// With no files it reads standard input. The exit status is 0 when no
// violations were found, 1 when at least one document violates, and 2 on
// operational errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// printSourceContext shows the line of the preprocessed input, whose
// line breaks positions count, that holds pos, with a caret under pos's
// column (columns are rune-based, matching the parser).
func printSourceContext(w io.Writer, input []byte, pos htmlparse.Position) {
	line := input[bytes.LastIndexByte(input[:pos.Offset], '\n')+1:]
	line, _, _ = bytes.Cut(line, []byte("\n"))
	src := strings.ReplaceAll(string(line), "\t", " ")
	const max = 200
	if len(src) > max {
		src = src[:max] + "…"
	}
	fmt.Fprintf(w, "    %s\n", src)
	if pos.Col >= 1 && pos.Col <= len(src)+1 {
		runes := []rune(src)
		pad := pos.Col - 1
		if pad > len(runes) {
			pad = len(runes)
		}
		fmt.Fprintf(w, "    %s^\n", strings.Repeat(" ", pad))
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hvcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as JSON lines")
		rules   = fs.String("rules", "", "comma-separated rule IDs to check (default: all)")
		quiet   = fs.Bool("q", false, "suppress per-finding output; status code only")
		list    = fs.Bool("list", false, "list the catalogue and exit")
		verbose = fs.Bool("v", false, "with -list: include the attack description per rule")
		source  = fs.Bool("show-source", false, "print the offending source line under each finding")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, r := range core.Rules() {
			fmt.Fprintf(stdout, "%-6s %-2s %-10s fixable=%-5v %s\n",
				r.ID, r.Group, r.Category, r.AutoFixable, r.Name)
			if *verbose {
				fmt.Fprintf(stdout, "       %s\n", r.Doc)
			}
		}
		return 0
	}
	ids, err := core.ParseRuleIDs(*rules)
	if err != nil {
		fmt.Fprintf(stderr, "hvcheck: %v\n", err)
		return 2
	}
	checker := core.NewChecker(ids...)

	inputs := fs.Args()
	exit := 0
	check := func(name string, data []byte) {
		rep, err := checker.Check(data)
		if err == htmlparse.ErrNotUTF8 {
			fmt.Fprintf(stderr, "hvcheck: %s: skipped (not UTF-8)\n", name)
			return
		}
		if err != nil {
			fmt.Fprintf(stderr, "hvcheck: %s: %v\n", name, err)
			exit = 2
			return
		}
		if rep.HasViolation() && exit == 0 {
			exit = 1
		}
		if *quiet {
			return
		}
		var input []byte
		if *source {
			pre, _ := htmlparse.Preprocess(data) // Check accepted data
			input = pre.Input
		}
		for _, f := range rep.Findings {
			if *jsonOut {
				line, _ := json.Marshal(map[string]any{
					"file": name, "rule": f.RuleID,
					"line": f.Pos.Line, "col": f.Pos.Col,
					"evidence": f.Evidence,
				})
				fmt.Fprintln(stdout, string(line))
			} else {
				fmt.Fprintf(stdout, "%s:%d:%d: %s", name, f.Pos.Line, f.Pos.Col, f.RuleID)
				if f.Evidence != "" {
					fmt.Fprintf(stdout, " (%s)", f.Evidence)
				}
				fmt.Fprintln(stdout)
				if *source {
					printSourceContext(stdout, input, f.Pos)
				}
			}
		}
	}

	if len(inputs) == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "hvcheck: stdin: %v\n", err)
			return 2
		}
		check("<stdin>", data)
		return exit
	}
	for _, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "hvcheck: %v\n", err)
			exit = 2
			continue
		}
		check(path, data)
	}
	return exit
}
