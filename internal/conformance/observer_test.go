package conformance

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// liveTrace is an observer that keeps everything a parse reports, in the
// order it arrives.
type liveTrace struct {
	tokens []htmlparse.Token
	errors []htmlparse.ParseError
	events []htmlparse.TreeEvent
}

func (l *liveTrace) Tag(t *htmlparse.Token)       { l.tokens = append(l.tokens, *t) }
func (l *liveTrace) Error(e htmlparse.ParseError) { l.errors = append(l.errors, e) }
func (l *liveTrace) Event(e *htmlparse.TreeEvent) { l.events = append(l.events, *e) }

// observerAgreement checks that an observer passed to ParseScoped sees
// what Parse records: the same tags and the same events in the same
// order, and the same errors once they are stable-sorted by offset. The
// preprocessor's errors come first; after them, the tokenizer's errors
// arrive in offset order, which is what keeps the findings of the error
// rules (DM3, FB1, FB2) in order in a live check. The tree builder also
// emits unexpected-null-character, at a text token's first NUL once the
// token is complete, and an observer cannot tell which stage emitted one,
// so that code is left out of the order check along with the tree-stage
// codes. The scoped Result itself records nothing. Input outside the
// UTF-8 domain must be rejected by both parses.
func observerAgreement(input []byte) error {
	want, perr := htmlparse.Parse(input)
	var live liveTrace
	var recorded error
	err := htmlparse.ParseScoped(context.Background(), input, htmlparse.Options{}, &live, func(res *htmlparse.Result) {
		if res.Errors != nil || res.Events != nil || res.Tokens != nil {
			recorded = fmt.Errorf("scoped Result of %.80q records %d errors, %d events, %d tokens", input, len(res.Errors), len(res.Events), len(res.Tokens))
		}
	})
	if (err == nil) != (perr == nil) {
		return fmt.Errorf("UTF-8 domain disagreement for %.80q: ParseScoped %v, Parse %v", input, err, perr)
	}
	if err != nil || recorded != nil {
		return recorded
	}
	if !reflect.DeepEqual(live.tokens, want.Tokens) {
		return fmt.Errorf("observed tags of %.80q differ from Parse's:\n %v\n %v", input, live.tokens, want.Tokens)
	}
	if !reflect.DeepEqual(live.events, want.Events) {
		return fmt.Errorf("observed events of %.80q differ from Parse's:\n %v\n %v", input, live.events, want.Events)
	}
	sorted := append([]htmlparse.ParseError(nil), live.errors...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Pos < sorted[j].Pos })
	if !slices.Equal(sorted, want.Errors) {
		return fmt.Errorf("observed errors of %.80q, sorted, differ from Parse's:\n %v\n %v", input, sorted, want.Errors)
	}
	pre, _ := htmlparse.Preprocess(input)
	if !slices.Equal(live.errors[:len(pre.Errors)], pre.Errors) {
		return fmt.Errorf("the first observed errors of %.80q are not the preprocessor's: %v", input, live.errors)
	}
	last := -1
	for _, e := range live.errors[len(pre.Errors):] {
		if e.Code.TreeStage() || e.Code == htmlparse.ErrUnexpectedNullCharacter {
			continue
		}
		if e.Pos < last {
			return fmt.Errorf("tokenizer error %v of %.80q arrives after one at offset %d", e, input, last)
		}
		last = e.Pos
	}
	return nil
}

// TestObserverMatchesRecord runs observerAgreement over the corpus, the
// seed-29 snapshot, the fix corpus, the hostile shapes at 1 KiB and two
// pages whose preprocessor errors come after tokenizer errors in the
// input, which no corpus case has.
func TestObserverMatchesRecord(t *testing.T) {
	pages := []snapshotPage{
		{"late stream errors", []byte("<p id=a id=b>\x01</p>\ufdd0<br/x>")},
		{"stream errors around a NUL", []byte("<title>\x7f</title>a\x00b<div a=1 a=2>\x01")},
	}
	forEachCorpusCase(t, func(id string, input []byte) {
		pages = append(pages, snapshotPage{id, input})
	})
	pages = append(pages, snapshotPages()...)
	pages = append(pages, fixCorpusPages(t)...)
	for _, s := range hostileShapes {
		pages = append(pages, snapshotPage{s.name, []byte(s.prefix + strings.Repeat(s.unit, 1<<10/len(s.unit)) + s.suffix)})
	}
	for _, p := range pages {
		if err := observerAgreement(p.body); err != nil {
			t.Errorf("%s: %v", p.id, err)
		}
	}
}

// hostileShapes repeats the hostile shapes of htmlparse's hostile_test.go
// (a prefix, a unit repeated to size, a suffix): test files of one
// package cannot be imported by another.
var hostileShapes = []struct{ name, prefix, unit, suffix string }{
	{"comment dashes", "<!--", "a-", "-->"},
	{"comment less-thans", "<!--", "<", "-->"},
	{"textarea end tag name", "<textarea></", "A", ""},
	{"doctype public ID of NULs", `<!DOCTYPE html PUBLIC "`, "\x00", `">`},
	{"text of NULs", "", "\x00", ""},
	{"attribute of references", `<a href="`, "&amp;", `">`},
	{"text of references", "", "&amp;", ""},
	{"plain comment", "<!--", "a", "-->"},
	{"text between ignored end tags", "", "a</x>", ""},
}
