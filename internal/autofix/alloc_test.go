package autofix

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// benchPage loads one of the shared parser benchmark pages. "large" is
// no file: it is typical.html with its body, from the first <body to the
// last </body>, spliced in again until the page passes 200 KiB, the size
// of the largest repair documents.
func benchPage(tb testing.TB, name string) []byte {
	tb.Helper()
	file := name
	if name == "large" {
		file = "typical"
	}
	data, err := os.ReadFile(filepath.Join("..", "htmlparse", "testdata", "bench", file+".html"))
	if err != nil {
		tb.Fatal(err)
	}
	if name == "large" {
		start, end := bytes.Index(data, []byte("<body")), bytes.LastIndex(data, []byte("</body>"))
		page := slices.Clone(data[:end])
		for len(page) < 200<<10 {
			page = append(page, data[start:end]...)
		}
		data = append(page, data[end:]...)
	}
	return data
}

// TestRepairBytesPerCall bounds the bytes a warm Repair of the typical
// benchmark page allocates, counted from runtime.MemStats.TotalAlloc so
// host noise cannot move it. The page converges in one round: the
// input's check, the strategies, one candidate and its check. Both
// checks give their tree's node slabs back when the round ends, so what
// is left is two input buffers, attribute arrays, errors, events, two
// reports and the candidate's bytes. Each call is counted alone and the
// median taken, as in core's TestCheckBytesPerCall; a race-instrumented
// binary allocates more in the tokenizer, so it skips the gate.
func TestRepairBytesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte bound is for the uninstrumented build")
	}
	// About 334 KB measured (go1.24, amd64); the parent of scoped
	// rounds allocated 1.65 MB.
	const bound = 500_000
	data := benchPage(t, "typical")
	for i := 0; i < 5; i++ {
		r, err := Repair(data)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rounds != 1 {
			t.Fatalf("typical page repaired in %d rounds, want 1", r.Rounds)
		}
	}
	const calls = 51
	per := make([]uint64, calls)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		if _, err := Repair(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	if median := per[calls/2]; median > bound {
		t.Errorf("Repair allocates %d B per call on the typical page (median of %d), bound %d", median, calls, bound)
	}
}

// BenchmarkRepair measures the repair layer alone over the shared parser
// benchmark pages: check, strategies, serialization and the candidate's
// check per round.
func BenchmarkRepair(b *testing.B) {
	for _, name := range []string{"small", "typical", "pathological", "large"} {
		data := benchPage(b, name)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Repair(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
