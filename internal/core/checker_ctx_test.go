package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// TestCheckContextCancellation: a context canceled mid-document aborts
// CheckContext with ctx's error and no report, and the pooled parser the
// aborted check gives back checks the next documents exactly as a fresh
// tree parse does.
func TestCheckContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A hook rule that cancels the check at its 100th tag, far from
	// either end of the document.
	canceler := Rule{ID: "CANCEL", Stream: func() RuleStream {
		n := 0
		return RuleStream{Token: func(*htmlparse.Token, func(Finding)) {
			if n++; n == 100 {
				cancel()
			}
		}}
	}}
	c := NewCheckerWith(append(Rules(), canceler)...)
	rep, err := c.CheckContext(ctx, []byte(strings.Repeat("<p a=b></p>", 10000)), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("canceled check returned a report")
	}
	for _, doc := range []string{
		"<p>ok</p>",
		`<!DOCTYPE html><form><form action=/x></form><img/src=x><div a=1 a=2>`,
		`<table><b>x</b></table><svg><style>y</style></svg>`,
	} {
		got, err := c.CheckContext(context.Background(), []byte(doc), 0)
		if err != nil {
			t.Fatalf("check after an aborted check: %v", err)
		}
		_, want, err := NewChecker().CheckTree(context.Background(), []byte(doc), 0)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmtFindings(got.Findings), fmtFindings(want.Findings); g != w || got.Signals != want.Signals {
			t.Fatalf("%q after an aborted check:\n got  %s %+v\n want %s %+v", doc, g, got.Signals, w, want.Signals)
		}
	}
}

func fmtFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString("; ")
	}
	return b.String()
}
