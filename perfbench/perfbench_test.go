package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/crawler"
)

func testEnv(t *testing.T) *runEnv {
	dir := t.TempDir()
	return &runEnv{seed: 3, window: 50 * time.Millisecond, cache: dir, work: dir, out: io.Discard}
}

// smallStudy generates a two-snapshot archive of a few dozen domains.
func smallStudy(t *testing.T, e *runEnv) string {
	t.Helper()
	dir, err := fixtureDir(e.cache, "study", e.seed, func(dir string, seed int64) error {
		return genStudySized(dir, seed, 40, 3, corpus.Snapshots[:2])
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// dropOne drops one finding from the first report that has a rule the
// generator can only have planted (not a cross-firing it explains).
type dropOne struct {
	crawler.Checker
	mu      sync.Mutex
	dropped bool
}

func (d *dropOne) Check(html []byte) (*core.Report, error) {
	rep, err := d.Checker.Check(html)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil || d.dropped {
		return rep, err
	}
	for _, id := range rep.ViolatedIDs() {
		if id == "DM2_2" || id == "DM2_3" {
			continue
		}
		out := *rep
		out.RuleHits = maps.Clone(rep.RuleHits)
		delete(out.RuleHits, id)
		out.Findings = slices.DeleteFunc(slices.Clone(rep.Findings), func(f core.Finding) bool { return f.RuleID == id })
		d.dropped = true
		return &out, nil
	}
	return rep, nil
}

func TestStudyChecksCatchDroppedFinding(t *testing.T) {
	e := testEnv(t)
	dir := smallStudy(t, e)
	res, err := studyAt(e, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.metrics["success_ratio"] != 1 {
		t.Fatalf("clean run: %d of %d failed", res.failed, res.attempted)
	}
	var d *dropOne
	res, err = studyAt(e, dir, func(c crawler.Checker) crawler.Checker {
		d = &dropOne{Checker: c}
		return d
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.dropped {
		t.Fatal("no report had a finding to drop")
	}
	if res.failed == 0 || res.metrics["success_ratio"] >= 1 {
		t.Fatalf("a dropped finding went unnoticed: %d of %d failed", res.failed, res.attempted)
	}
}

func TestServeChecksCatchShedRequests(t *testing.T) {
	e := testEnv(t)
	dir, err := fixtureDir(e.cache, "serve", e.seed, genServe)
	if err != nil {
		t.Fatal(err)
	}
	in, err := loadServeInputs(dir, e.seed)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	var shed atomic.Bool
	inner := newServer()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed.Load() && n.Add(1)%100 == 0 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	run := runLoad(context.Background(), srv.URL, in, 500, serveConns, time.Second, 0, false)
	if failed := run.check(in); failed != 0 {
		t.Fatalf("clean server: %d of %d requests failed", failed, len(run.samples))
	}
	shed.Store(true)
	run = runLoad(context.Background(), srv.URL, in, 500, serveConns, time.Second, 0, false)
	if failed := run.check(in); failed < len(run.samples)/100 {
		t.Fatalf("a server shedding 1 request in 100 failed only %d of %d", failed, len(run.samples))
	}
}

func TestJudgeRules(t *testing.T) {
	tr := pageTruth{Planted: []string{"DM2_1", "FB1"}, Allowed: allowedRules([]string{"DM2_1", "FB1"})}
	for _, c := range []struct {
		hits map[string]int
		ok   bool
	}{
		{map[string]int{"DM2_1": 1, "FB1": 2}, true},
		{map[string]int{"DM2_1": 1, "FB1": 2, "DM2_3": 1}, true}, // explained by DM2_1
		{map[string]int{"DM2_1": 1}, false},                      // planted FB1 missing
		{map[string]int{"DM2_1": 1, "FB1": 1, "DE4": 1}, false},  // unexplained
	} {
		if got := judgeRules(tr, c.hits) == ""; got != c.ok {
			t.Errorf("judgeRules(%v) passes = %v, want %v", c.hits, got, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "page", Parent: -1, Start: 0, End: 100},
		{Name: "read", Parent: 0, Start: 10, End: 40},
		{Name: "check", Parent: 0, Start: 30, End: 90}, // overlaps read by 10
		{Name: "rules", Parent: 2, Start: 50, End: 60},
	}
	got := selfTimes(spans)
	if want := []int64{20, 30, 50, 10}; !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the code
// reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	same := func(kind string, json []struct{ Name, Unit string }, code []metricDef) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(json), len(code))
			return
		}
		for i, m := range json {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	var meta struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		Moves     map[string]string          `json:"per_layer_moves"`
	}
	b, err = os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	for w := range workloads {
		if _, ok := meta.Workloads[w]; !ok {
			t.Errorf("workloads.json does not describe workload %s", w)
		}
	}
	for _, d := range perLayer {
		if meta.Moves[d.name] == "" {
			t.Errorf("workloads.json does not say what %s should move", d.name)
		}
	}
	if len(meta.Moves) != len(perLayer) {
		t.Errorf("workloads.json maps %d per-layer metrics, the code reports %d", len(meta.Moves), len(perLayer))
	}
}
