package perf

import (
	"strings"
	"testing"
)

// event wraps a benchmark output line as one test2json event.
func event(output string) string {
	return `{"Action":"output","Package":"p","Output":"` + output + `\n"}`
}

func TestParseTestJSON(t *testing.T) {
	in := strings.Join([]string{
		`{"Action":"start","Package":"p"}`,
		event(`goos: linux`),
		event(`BenchmarkParse/typical-8   \t     100\t  11850934 ns/op\t  20.44 MB/s\t 2913403 B/op\t 2049 allocs/op`),
		event(`BenchmarkTokenize/small-8  \t   10000\t     16974 ns/op\t  53.21 MB/s`),
		event(`PASS`),
		`{"Action":"pass","Package":"p"}`,
	}, "\n")
	run, err := ParseTestJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %v", len(run.Benchmarks), run.Names())
	}
	m, ok := run.Benchmarks["BenchmarkParse/typical"]
	if !ok {
		t.Fatalf("missing BenchmarkParse/typical (proc suffix not stripped?): %v", run.Names())
	}
	if m.NsPerOp != 11850934 || m.MBPerSec != 20.44 || m.BytesPerOp != 2913403 || m.AllocsPerOp != 2049 || m.Iterations != 100 {
		t.Fatalf("wrong metrics: %+v", m)
	}
	if m := run.Benchmarks["BenchmarkTokenize/small"]; m.AllocsPerOp != 0 {
		t.Fatalf("allocs should be absent (0), got %+v", m)
	}
}

// TestParseTestJSONMalformedLines checks the parser shrugs off non-JSON
// lines, truncated events and benchmark-shaped garbage instead of failing
// the whole run.
func TestParseTestJSONMalformedLines(t *testing.T) {
	in := strings.Join([]string{
		`not json at all`,
		`{"Action":"output","Output":`, // truncated JSON
		`{"Action":"output"`,
		event(`BenchmarkBroken-8 notanumber 5 ns/op`),     // bad iteration count
		event(`BenchmarkBroken2-8 10 notanumber ns/op`),   // bad value
		event(`BenchmarkNoNs-8 10 5.0 MB/s`),              // missing ns/op
		event(`BenchmarkOK-8 50 2000 ns/op`),              // the one good line
		`{"Action":"output","Output":"BenchmarkSplit-8"}`, // too few fields
	}, "\n")
	run, err := ParseTestJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Benchmarks) != 1 {
		t.Fatalf("got %v, want only BenchmarkOK", run.Names())
	}
	if m := run.Benchmarks["BenchmarkOK"]; m.NsPerOp != 2000 {
		t.Fatalf("wrong metrics: %+v", m)
	}
}

// TestParseTestJSONSplitEvents: go test prints a benchmark's name before
// running it and the timing afterwards, so test2json delivers one result
// line as multiple output events. The parser must stitch them back
// together — and keep packages' interleaved streams separate.
func TestParseTestJSONSplitEvents(t *testing.T) {
	in := strings.Join([]string{
		`{"Action":"output","Package":"a","Output":"BenchmarkSplit/typical-8         \t"}`,
		`{"Action":"output","Package":"b","Output":"BenchmarkOther-8 10 99 ns/op\n"}`,
		`{"Action":"output","Package":"a","Output":"     100\t  11850934 ns/op\t  20.44 MB/s\n"}`,
	}, "\n")
	run, err := ParseTestJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := run.Benchmarks["BenchmarkSplit/typical"]
	if !ok || m.NsPerOp != 11850934 || m.MBPerSec != 20.44 {
		t.Fatalf("split result not reassembled: %v / %+v", run.Names(), m)
	}
	if m := run.Benchmarks["BenchmarkOther"]; m.NsPerOp != 99 {
		t.Fatalf("package streams mixed: %+v", m)
	}
}

func TestParseTestJSONEmpty(t *testing.T) {
	if _, err := ParseTestJSON(strings.NewReader(`{"Action":"pass"}`)); err == nil {
		t.Fatal("want error for stream with no benchmark results")
	}
}

// TestParseTestJSONMinOfN: with -count=N the same benchmark repeats; the
// recorded value must be the fastest run, not the last one.
func TestParseTestJSONMinOfN(t *testing.T) {
	in := strings.Join([]string{
		event(`BenchmarkX-8 100 3000 ns/op`),
		event(`BenchmarkX-8 100 2000 ns/op`),
		event(`BenchmarkX-8 100 2500 ns/op`),
	}, "\n")
	run, err := ParseTestJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m := run.Benchmarks["BenchmarkX"]; m.NsPerOp != 2000 {
		t.Fatalf("want min-of-N 2000 ns/op, got %+v", m)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkParse-8":            "BenchmarkParse",
		"BenchmarkParse/typical-16":   "BenchmarkParse/typical",
		"BenchmarkParse/no-suffix":    "BenchmarkParse/no-suffix",
		"BenchmarkParse/dash-2-cpu-4": "BenchmarkParse/dash-2-cpu",
		"BenchmarkPlain":              "BenchmarkPlain",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func run1(name string, ns float64) *Run {
	return &Run{Benchmarks: map[string]Metrics{name: {NsPerOp: ns, Iterations: 1}}}
}

// TestCompareToleranceEdges pins the gate boundary: exactly at tolerance
// passes, epsilon beyond fails, and the same applies on the improvement
// side for the "faster" verdict.
func TestCompareToleranceEdges(t *testing.T) {
	base := run1("BenchmarkX", 1000)
	cases := []struct {
		ns   float64
		want Verdict
	}{
		{1100, OK}, // exactly +10%: within tolerance
		{1100.01, Regression},
		{1099, OK},
		{900, OK}, // exactly -10%: not yet "faster"
		{899.9, Faster},
		{1000, OK},
	}
	for _, c := range cases {
		d := Compare(base, run1("BenchmarkX", c.ns), 0.10)
		if len(d.Deltas) != 1 || d.Deltas[0].Verdict != c.want {
			t.Errorf("ns=%v: got %v, want %v", c.ns, d.Deltas[0].Verdict, c.want)
		}
		wantFail := c.want == Regression
		if gotFail := len(d.Failures()) > 0; gotFail != wantFail {
			t.Errorf("ns=%v: Failures() = %v, want fail=%v", c.ns, d.Failures(), wantFail)
		}
	}
}

// TestCompareOneSided covers benchmarks present in only one run: vanishing
// from the baseline is a gate failure, appearing fresh is informational.
func TestCompareOneSided(t *testing.T) {
	base := &Run{Benchmarks: map[string]Metrics{
		"BenchmarkKept": {NsPerOp: 100},
		"BenchmarkGone": {NsPerOp: 100},
	}}
	cur := &Run{Benchmarks: map[string]Metrics{
		"BenchmarkKept": {NsPerOp: 100},
		"BenchmarkNew":  {NsPerOp: 100},
	}}
	d := Compare(base, cur, 0.10)
	verdicts := map[string]Verdict{}
	for _, dl := range d.Deltas {
		verdicts[dl.Name] = dl.Verdict
	}
	want := map[string]Verdict{"BenchmarkKept": OK, "BenchmarkGone": Missing, "BenchmarkNew": Added}
	for name, v := range want {
		if verdicts[name] != v {
			t.Errorf("%s: got %v, want %v", name, verdicts[name], v)
		}
	}
	fails := d.Failures()
	if len(fails) != 1 || fails[0].Name != "BenchmarkGone" {
		t.Fatalf("Failures() = %v, want only BenchmarkGone", fails)
	}
}

// TestMarkdownGolden pins the exact rendered table so the CI summary
// format changes deliberately, not by accident.
func TestMarkdownGolden(t *testing.T) {
	base := &Run{Benchmarks: map[string]Metrics{
		"BenchmarkParse/typical": {NsPerOp: 18000000, MBPerSec: 13.40, BytesPerOp: 5412000, AllocsPerOp: 17225},
		"BenchmarkGone":          {NsPerOp: 500},
	}}
	cur := &Run{Benchmarks: map[string]Metrics{
		"BenchmarkParse/typical": {NsPerOp: 11850934, MBPerSec: 20.44, BytesPerOp: 2913403, AllocsPerOp: 2049},
		"BenchmarkNew":           {NsPerOp: 750, MBPerSec: 1.25},
	}}
	got := Compare(base, cur, 0.10).Markdown()
	want := strings.Join([]string{
		"| benchmark | old ns/op | new ns/op | delta | MB/s | B/op | allocs/op | verdict |",
		"|---|---:|---:|---:|---:|---:|---:|---|",
		"| BenchmarkGone | 500 | — | — | — | — | — | missing |",
		"| BenchmarkParse/typical | 18000000 | 11850934 | -34.2% | 13.40 → 20.44 | 5412000 → 2913403 | 17225 → 2049 | faster |",
		"| BenchmarkNew | — | 750 | — | 1.25 | — | — | added |",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("markdown table drifted\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
