package htmlparse

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestParseReuseContextCompletesLikeParse(t *testing.T) {
	in := []byte("<!DOCTYPE html><p class=a>hello <b>world</b></p>")
	want, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReuseContext(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dw, dg := DumpTree(want.Doc), DumpTree(got.Doc); dw != dg {
		t.Fatalf("context parse diverged from Parse:\nwant:\n%s\ngot:\n%s", dw, dg)
	}
	if len(got.Tokens) != len(want.Tokens) || len(got.Errors) != len(want.Errors) {
		t.Fatalf("tokens/errors mismatch: got %d/%d want %d/%d",
			len(got.Tokens), len(got.Errors), len(want.Tokens), len(want.Errors))
	}
}

func TestParseReuseContextCancellationAborts(t *testing.T) {
	// A document long enough that the cancel stride (512 tokens) is
	// crossed many times.
	in := []byte("<!DOCTYPE html>" + strings.Repeat("<p>x</p>", 20000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ParseReuseContext(ctx, in, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled parse returned a partial Result")
	}
}

func TestParseReuseContextDepthCap(t *testing.T) {
	deep := []byte("<!DOCTYPE html>" + strings.Repeat("<div>", 5000))
	_, err := ParseReuseContext(context.Background(), deep, Options{MaxTreeDepth: 256})
	if !errors.Is(err, ErrTreeDepthExceeded) {
		t.Fatalf("err = %v, want ErrTreeDepthExceeded", err)
	}
	// A shallow document under the same cap parses fine, and the pooled
	// parser that just aborted is safely reusable.
	res, err := ParseReuseContext(context.Background(), []byte("<p>ok</p>"), Options{MaxTreeDepth: 256})
	if err != nil {
		t.Fatalf("shallow parse after aborted deep parse: %v", err)
	}
	if res.Doc == nil {
		t.Fatal("shallow parse returned no tree")
	}
}

// TestParseReuseContextAbortThenReusePool interleaves aborted and
// successful parses to prove an abort never corrupts pooled scratch.
func TestParseReuseContextAbortThenReusePool(t *testing.T) {
	deep := []byte(strings.Repeat("<span>", 2000))
	good := []byte("<!DOCTYPE html><ul><li>a<li>b</ul>")
	wantDump := ""
	for i := 0; i < 50; i++ {
		if _, err := ParseReuseContext(context.Background(), deep, Options{MaxTreeDepth: 64}); !errors.Is(err, ErrTreeDepthExceeded) {
			t.Fatalf("round %d: deep parse err = %v, want ErrTreeDepthExceeded", i, err)
		}
		res, err := ParseReuseContext(context.Background(), good, Options{})
		if err != nil {
			t.Fatalf("round %d: good parse: %v", i, err)
		}
		d := DumpTree(res.Doc)
		if wantDump == "" {
			wantDump = d
		} else if d != wantDump {
			t.Fatalf("round %d: pooled parser corrupted by aborted parse:\n%s", i, d)
		}
	}
}
