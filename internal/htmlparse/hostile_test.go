package htmlparse

import (
	"strings"
	"testing"
	"time"
)

// hostileShape is an input that builds one string however long it
// grows: a prefix, a unit repeated to the wanted size, and a suffix. Most
// make the tokenizer build one token or scan one run for its whole
// length; the ignored end tags split one text node's content into as
// many tokens, which the tree builder merges. A builder that copies per
// append, or a scan that rereads the rest of the input per chunk, turns
// quadratic. maxAlloc bounds the bytes a check of the shape at 1 MiB
// allocates (TestHostileShapesAllocationBudget).
type hostileShape struct {
	name, prefix, unit, suffix string
	maxAlloc                   uint64
}

var hostileShapes = []hostileShape{
	{"comment dashes", "<!--", "a-", "-->", 1_380_000},
	{"comment less-thans", "<!--", "<", "-->", 1_380_000},
	{"textarea end tag name", "<textarea></", "A", "", 7_950_000},
	{"doctype public ID of NULs", `<!DOCTYPE html PUBLIC "`, "\x00", `">`, 26_300_000},
	{"text of NULs", "", "\x00", "", 1_370_000},
	{"attribute of references", `<a href="`, "&amp;", `">`, 2_780_000},
	{"text of references", "", "&amp;", "", 2_780_000},
	{"plain comment", "<!--", "a", "-->", 1_380_000},
	{"text between ignored end tags", "", "a</x>", "", 3_030_000},
}

// input returns the shape with its unit repeated to about size bytes.
func (s hostileShape) input(size int) string {
	return s.prefix + strings.Repeat(s.unit, size/len(s.unit)) + s.suffix
}

// hostileSeeds returns every shape at about size bytes.
func hostileSeeds(size int) []string {
	var out []string
	for _, s := range hostileShapes {
		out = append(out, s.input(size))
	}
	return out
}

// TestHostileShapesParseInLinearTime parses each shape at 1 MiB within
// a second, ten under the race detector, whose instrumentation slows the
// per-character states about tenfold. Linear work takes milliseconds (a
// few hundred for the NULs, which record a million parse errors); one
// quadratic step takes minutes.
func TestHostileShapesParseInLinearTime(t *testing.T) {
	budget := time.Second
	if raceEnabled {
		budget *= 10
	}
	for _, s := range hostileShapes {
		t.Run(s.name, func(t *testing.T) {
			in := []byte(s.input(1 << 20))
			start := time.Now()
			if _, err := Parse(in); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > budget {
				t.Errorf("1 MiB parse took %v, budget %v", d, budget)
			}
		})
	}
}

// HostileCase is one hostile shape at 1 MiB with its allocation bound.
// The budget checks through core, which imports this package, so it runs
// in package htmlparse_test.
type HostileCase struct {
	Name     string
	Input    []byte
	MaxAlloc uint64
}

// HostileCases returns every hostile shape at 1 MiB.
func HostileCases() []HostileCase {
	out := make([]HostileCase, len(hostileShapes))
	for i, s := range hostileShapes {
		out[i] = HostileCase{s.name, []byte(s.input(1 << 20)), s.maxAlloc}
	}
	return out
}

// RaceEnabled reports a race-instrumented test binary to package
// htmlparse_test.
const RaceEnabled = raceEnabled
