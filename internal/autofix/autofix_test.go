package autofix

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hvscan/hvscan/internal/core"
)

func check(t *testing.T, html []byte) *core.Report {
	t.Helper()
	rep, err := core.NewChecker().Check(html)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rep
}

func repair(t *testing.T, in string) *Result {
	t.Helper()
	r, err := Repair([]byte(in))
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	return r
}

func TestRepairRemovesFixableViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
		rule string
	}{
		{"FB1", `<!DOCTYPE html><html><head><title>t</title></head><body><img/src="x"/alt="a"></body></html>`, "FB1"},
		{"FB2", `<!DOCTYPE html><html><head><title>t</title></head><body><a href="/x"title="t">x</a></body></html>`, "FB2"},
		{"DM3", `<!DOCTYPE html><html><head><title>t</title></head><body><div id="a" id="b">x</div></body></html>`, "DM3"},
		{"DM1", `<!DOCTYPE html><html><head><title>t</title></head><body><meta http-equiv="refresh" content="1"><p>x</p></body></html>`, "DM1"},
		{"DM2_1", `<!DOCTYPE html><html><head><title>t</title></head><body><base href="/b/"><p>x</p></body></html>`, "DM2_1"},
		{"DM2_2", `<!DOCTYPE html><html><head><base href="/a/"><base href="/b/"><title>t</title></head><body><p>x</p></body></html>`, "DM2_2"},
		{"DM2_3", `<!DOCTYPE html><html><head><link rel="stylesheet" href="/s.css"><base href="/l/"><title>t</title></head><body><p>x</p></body></html>`, "DM2_3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !check(t, []byte(tc.in)).Violated(tc.rule) {
				t.Fatalf("precondition: %s not present in input", tc.rule)
			}
			r := repair(t, tc.in)
			found := false
			for _, f := range r.Applied {
				if f.RuleID == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s fix recorded; applied = %v", tc.rule, r.Applied)
			}
			rep := check(t, r.Output)
			if rep.Violated(tc.rule) {
				t.Fatalf("%s survives repair:\n%s", tc.rule, r.Output)
			}
		})
	}
}

// TestRepairClearsAllFixableClasses: after Repair, no FB or DM violation
// remains, whatever the combination.
func TestRepairClearsAllFixableClasses(t *testing.T) {
	in := `<!DOCTYPE html><html><head><link href="/s.css" rel="stylesheet"><base href="/x/"><title>t</title></head>` +
		`<body><base href="/y/"><img/src=a/alt=b><p class=x class=y>text</p>` +
		`<meta http-equiv="refresh" content="2"><em a=1 a=2>z</em></body></html>`
	r := repair(t, in)
	rep := check(t, r.Output)
	for _, id := range rep.ViolatedIDs() {
		rule, _ := core.RuleByID(id)
		if rule.AutoFixable {
			t.Errorf("auto-fixable %s survives repair", id)
		}
	}
}

// TestRepairIdempotent: repairing a repaired document is a no-op.
func TestRepairIdempotent(t *testing.T) {
	in := `<!DOCTYPE html><html><head><title>t</title></head><body><img/src=a/alt=b><base href="/z/"><div id=i id=j>x</div></body></html>`
	r1 := repair(t, in)
	r2, err := Repair(r1.Output)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Applied) != 0 {
		t.Fatalf("second repair applied fixes: %v", r2.Applied)
	}
	if string(r2.Output) != string(r1.Output) {
		t.Fatalf("repair not idempotent:\n%s\nvs\n%s", r1.Output, r2.Output)
	}
}

// TestRepairPreservesContent: the visible content survives the round trip.
func TestRepairPreservesContent(t *testing.T) {
	in := `<!DOCTYPE html><html><head><title>Shop</title></head><body>` +
		`<h1>Deals</h1><p>Buy <a href="/p/1"title="now">now</a> and save.</p></body></html>`
	r := repair(t, in)
	for _, want := range []string{"Deals", "Buy", "now", "and save.", `href="/p/1"`, `title="now"`} {
		if !contains(string(r.Output), want) {
			t.Errorf("repaired output lost %q:\n%s", want, r.Output)
		}
	}
}

// TestRepairLeavesHFAlone: non-fixable violations are reported untouched —
// HF4's foster parenting is materialized by serialization, but Repair must
// not claim credit.
func TestRepairLeavesHFAlone(t *testing.T) {
	in := `<!DOCTYPE html><html><head><title>t</title></head><body><form action="/a"><form action="/b"></form></form></body></html>`
	r := repair(t, in)
	for _, f := range r.Applied {
		if f.RuleID == "DE4" {
			t.Fatalf("claimed to fix DE4: %v", r.Applied)
		}
	}
}

func TestFixableRuleIDs(t *testing.T) {
	ids := FixableRuleIDs()
	want := map[string]bool{"FB1": true, "FB2": true, "DM1": true,
		"DM2_1": true, "DM2_2": true, "DM2_3": true, "DM3": true}
	if len(ids) != len(want) {
		t.Fatalf("fixable = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected fixable rule %s", id)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// mixedMetaPage carries a DM1 meta between </head> and <body>, which the
// tree builder reroutes into head, and another in the body; the page
// also has a base in the body (DM2_1).
const mixedMetaPage = `<!DOCTYPE html><html><head><title>t</title></head>
<meta http-equiv="refresh" content="5">
<body><p>x</p>
<meta http-equiv="set-cookie" content="a=b">
<base href="/a/"></body>`

// TestFixDM1RecordsByPosition: each DM1 record sits at the meta it
// describes — the in-body meta is moved, the rerouted one is
// re-serialized — whatever order the findings come in.
func TestFixDM1RecordsByPosition(t *testing.T) {
	r := repair(t, mixedMetaPage)
	var got []string
	for _, f := range r.Applied {
		if f.RuleID == "DM1" {
			got = append(got, fmt.Sprintf("%s at %s", f.Description, f.Pos))
		}
	}
	want := []string{
		"moved meta[http-equiv] into head at 4:3",
		"re-serialized meta[http-equiv] inside head at 2:3",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("DM1 records = %q, want %q", got, want)
	}
}
