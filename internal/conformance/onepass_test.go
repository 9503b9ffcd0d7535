package conformance

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// diffReports reports the first difference between two reports, finding
// by finding, or "" when they agree on findings, rule hits and signals.
func diffReports(a, b *core.Report) string {
	if len(a.Findings) != len(b.Findings) {
		return fmt.Sprintf("finding counts %d vs %d:\n %v\n %v", len(a.Findings), len(b.Findings), a.Findings, b.Findings)
	}
	for i := range a.Findings {
		if a.Findings[i] != b.Findings[i] {
			return fmt.Sprintf("finding %d:\n %v\n %v", i, a.Findings[i], b.Findings[i])
		}
	}
	if d := diffRuleHits(a.RuleHits, b.RuleHits); d != "" {
		return "rule hits:\n" + d
	}
	if a.Signals != b.Signals {
		return fmt.Sprintf("signals:\n %+v\n %+v", a.Signals, b.Signals)
	}
	return ""
}

// onePassAgreement holds the one-pass checker to the replay path and the
// stream path on one input (see treeAgreement and streamAgreement).
func onePassAgreement(input []byte) error {
	rep, err := treeAgreement(input)
	if err != nil || rep == nil {
		return err
	}
	return streamAgreement(input, rep)
}

// treeAgreement checks Check ≡ CheckTree ≡ CheckParsed(ParseReuse) for
// the full catalogue and returns Check's report (nil for input outside
// the UTF-8 domain). It holds on every input: all three run the same
// parser.
func treeAgreement(input []byte) (*core.Report, error) {
	full := core.NewChecker()
	oneRep, err := full.Check(input)
	res, perr := htmlparse.ParseReuse(input)
	if (err == nil) != (perr == nil) {
		return nil, fmt.Errorf("UTF-8 domain disagreement for %q: Check %v, ParseReuse %v", input, err, perr)
	}
	if err != nil {
		return nil, nil
	}
	if d := diffReports(oneRep, full.CheckParsed(&core.Page{Result: res})); d != "" {
		return nil, fmt.Errorf("Check vs CheckParsed(ParseReuse) for %q: %s", input, d)
	}
	_, treeRep, err := full.CheckTree(context.Background(), input, 0)
	if err != nil {
		return nil, err
	}
	if d := diffReports(oneRep, treeRep); d != "" {
		return nil, fmt.Errorf("Check vs CheckTree for %q: %s", input, d)
	}
	return oneRep, nil
}

// streamAgreement checks that the streaming rules' findings in the
// one-pass report rep equal CheckStream's, finding for finding.
func streamAgreement(input []byte, rep *core.Report) error {
	streamRep, err := core.NewStreamingChecker().CheckStream(input)
	if err != nil {
		return err
	}
	// Reports list findings rule by rule in catalogue order, which this
	// filter keeps.
	onlyStream := &core.Report{RuleHits: map[string]int{}, Signals: rep.Signals}
	for _, f := range rep.Findings {
		if r, _ := core.RuleByID(f.RuleID); !r.TreeRequired {
			onlyStream.Findings = append(onlyStream.Findings, f)
			onlyStream.RuleHits[f.RuleID]++
		}
	}
	if d := diffReports(onlyStream, streamRep); d != "" {
		return fmt.Errorf("Check vs CheckStream for %q: %s", input, d)
	}
	return nil
}

// TestOnePassAgreementOnCorpus runs onePassAgreement over every
// tree-construction and tokenizer case of the checked-in corpus.
func TestOnePassAgreementOnCorpus(t *testing.T) {
	n := 0
	for _, dir := range []string{
		"testdata/tree-construction",
		filepath.Join("..", "htmlparse", "testdata", "tree-construction"),
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.dat"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			cases, err := ParseDatFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cases {
				if err := onePassAgreement([]byte(cases[i].Data)); err != nil {
					t.Errorf("%s: %v", cases[i].ID(), err)
				}
				n++
			}
		}
	}
	tokFiles, err := filepath.Glob(filepath.Join("testdata", "tokenizer", "*.test"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tokFiles {
		cases, err := ParseTestFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			if err := onePassAgreement([]byte(cases[i].Input)); err != nil {
				t.Errorf("%s: %v", cases[i].ID(), err)
			}
			n++
		}
	}
	if n < 300 {
		t.Fatalf("corpus shrank to %d cases", n)
	}
}

// TestRecordedTraceMatchesHook: on foreign content, where the tree
// builder renames attributes, the DE3_2 evidence keeps the tokenizer's
// attribute name in every mode — the recorded trace may not pick up the
// tree's rename.
func TestRecordedTraceMatchesHook(t *testing.T) {
	for in, evidence := range map[string]string{
		`<math definitionurl="a<script"></math>`:      "<math definitionurl=a<script",
		`<svg><path attributename="x<script"/></svg>`: "<path attributename=x<script",
	} {
		if err := onePassAgreement([]byte(in)); err != nil {
			t.Error(err)
		}
		res, err := htmlparse.Parse([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		rep := core.NewChecker().CheckParsed(&core.Page{Result: res})
		var got []string
		for _, f := range rep.Findings {
			if f.RuleID == "DE3_2" {
				got = append(got, f.Evidence)
			}
		}
		if len(got) != 1 || got[0] != evidence {
			t.Errorf("%s: DE3_2 evidence %q, want %q", in, got, evidence)
		}
	}
}

func FuzzOnePassAgreement(f *testing.F) {
	for _, s := range metamorphicSeeds {
		f.Add([]byte(s))
	}
	for _, s := range streamAgreementSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		rep, err := treeAgreement(input)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			return
		}
		// The stream comparison inherits the streaming mirror's documented
		// hazards, which StreamTreeAgreement reports.
		if err := streamAgreement(input, rep); err != nil {
			if hazard, _ := StreamTreeAgreement(input); !hazard {
				t.Error(err)
			}
		}
	})
}
