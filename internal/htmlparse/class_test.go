package htmlparse_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"unsafe"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/conformance"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// TestElementClassMatchesNameSets: in every tree built from the
// conformance corpus (fragments in their context), every page of the
// eight seed-29 snapshots and the fix corpus, each HTML element carries
// exactly the class bits of the name sets its tag name is in, and every
// other node carries none. Every element the adoption agency can clone is
// a formatting element, whose class is 0, so the trees alone would not
// show a clone that drops its class: each HTML element is also cloned,
// and the clone must carry the same bits. The bits live in Node's
// padding, so Node stays 144 bytes.
func TestElementClassMatchesNameSets(t *testing.T) {
	if size := unsafe.Sizeof(htmlparse.Node{}); size != 144 {
		t.Errorf("Node is %d bytes, want 144", size)
	}
	type page struct {
		id, fragment string
		body         []byte
	}
	var pages []page
	for _, dir := range []string{
		filepath.Join("..", "conformance", "testdata", "tree-construction"),
		filepath.Join("testdata", "tree-construction"),
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.dat"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no .dat files in %s: %v", dir, err)
		}
		for _, path := range files {
			cases, err := conformance.ParseDatFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				pages = append(pages, page{c.ID(), c.Fragment, []byte(c.Data)})
			}
		}
	}
	g := corpus.New(corpus.Config{Seed: 29, Domains: 150, MaxPages: 4})
	for _, snap := range corpus.Snapshots {
		for _, d := range g.Universe() {
			if !g.Succeeds(d, snap) {
				continue
			}
			for i := 0; i < g.PageCount(d, snap); i++ {
				pages = append(pages, page{fmt.Sprintf("%v %s page %d", snap, d, i), "", g.PageHTML(d, snap, i)})
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "autofix", "testdata", "*.fix"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fix corpus missing: %v", err)
	}
	for _, path := range files {
		cases, err := autofix.ParseFixFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			pages = append(pages, page{cases[i].ID(), "", []byte(cases[i].Data)})
		}
	}

	classed := 0
	for _, p := range pages {
		var res *htmlparse.Result
		var err error
		if p.fragment != "" {
			res, err = htmlparse.ParseFragment(p.body, p.fragment)
		} else {
			res, err = htmlparse.Parse(p.body)
		}
		if errors.Is(err, htmlparse.ErrNotUTF8) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		res.Doc.Walk(func(n *htmlparse.Node) bool {
			var want uint8
			if n.Type == htmlparse.ElementNode && n.Namespace == htmlparse.NamespaceHTML {
				want = htmlparse.NameClass(n.Data)
				if got := htmlparse.CloneClass(n); got != want {
					t.Fatalf("%s: clone of <%s> carries class %06b, want %06b", p.id, n.Data, got, want)
				}
			}
			if got := htmlparse.NodeClass(n); got != want {
				t.Fatalf("%s: %v node %q (namespace %v) carries class %06b, want %06b", p.id, n.Type, n.Data, n.Namespace, got, want)
			}
			if want != 0 {
				classed++
			}
			return true
		})
	}
	if len(pages) < 3900 || classed == 0 {
		t.Fatalf("vacuous: %d pages, %d classed elements", len(pages), classed)
	}
	t.Logf("%d pages, %d classed elements", len(pages), classed)
}
