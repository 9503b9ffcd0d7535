package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// The parser and checker adapter: the only file that calls the htmlparse
// and core entry points. The crawler, server and repair engine call them
// internally; the benchmark calls them directly only to replay inputs for
// the per-layer ledger and to verify outputs.

func newChecker() *core.Checker { return core.NewChecker() }

// ruleCounts checks a document and returns its findings per rule.
func ruleCounts(c *core.Checker, doc []byte) (map[string]int, error) {
	rep, err := c.Check(doc)
	if err != nil {
		return nil, err
	}
	return rep.RuleHits, nil
}

// layerTimes sums the replay of a set of documents through each parser
// and checker entry point.
type layerTimes struct {
	preprocess, tokenize, parse, rules, check time.Duration
	findings                                  int
	allocBytes                                uint64 // allocated by the parses
}

// replayLayers replays docs through each entry point. Each entry point
// runs in its own loop over all documents, after one untimed check has
// warmed the pools, so that every timed call follows a call like itself.
func replayLayers(c *core.Checker, docs [][]byte) (layerTimes, error) {
	var lt layerTimes
	for _, d := range docs {
		if _, err := c.Check(d); err != nil {
			return lt, err
		}
	}
	for _, d := range docs {
		t0 := time.Now()
		if _, err := htmlparse.Preprocess(d); err != nil {
			return lt, err
		}
		lt.preprocess += time.Since(t0)
	}
	for _, d := range docs {
		pre, err := htmlparse.Preprocess(d)
		if err != nil {
			return lt, err
		}
		t0 := time.Now()
		z := htmlparse.NewTokenizer(pre.Input)
		for z.Next().Type != htmlparse.EOFToken {
		}
		lt.tokenize += time.Since(t0)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, d := range docs {
		if _, err := htmlparse.ParseReuse(d); err != nil {
			return lt, err
		}
	}
	runtime.ReadMemStats(&ms1)
	lt.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, d := range docs {
		t0 := time.Now()
		res, err := htmlparse.ParseReuse(d)
		if err != nil {
			return lt, err
		}
		t1 := time.Now()
		c.CheckParsed(&core.Page{Result: res})
		lt.parse += t1.Sub(t0)
		lt.rules += time.Since(t1)
	}
	for _, d := range docs {
		t0 := time.Now()
		rep, err := c.Check(d)
		if err != nil {
			return lt, err
		}
		lt.check += time.Since(t0)
		lt.findings += len(rep.Findings)
	}
	return lt, nil
}

// replayParse replays documents through the parser and checker entry
// points and fills the htmlparse and core metrics, per document.
func replayParse(w io.Writer, c *core.Checker, docs [][]byte, m map[string]float64) error {
	lt, err := replayLayers(c, docs)
	if err != nil {
		return err
	}
	n := float64(len(docs))
	m["htmlparse.alloc_kb"] = float64(lt.allocBytes) / 1024 / n
	m["htmlparse.preprocess_us"] = us(lt.preprocess) / n
	m["htmlparse.tokenize_us"] = us(lt.tokenize) / n
	m["htmlparse.tree_us"] = us(lt.parse-lt.preprocess-lt.tokenize) / n
	m["core.check_us"] = us(lt.check) / n
	m["core.rules_us"] = us(lt.rules) / n
	m["core.check_residual_us"] = us(lt.check-lt.parse-lt.rules) / n
	m["core.findings"] = float64(lt.findings)
	fmt.Fprintf(w, "replayed %d documents through htmlparse and core\n", len(docs))
	return nil
}
