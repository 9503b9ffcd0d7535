package htmlparse_test

import (
	"runtime"
	"testing"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// TestHostileShapesAllocationBudget bounds the bytes a full-catalogue
// CheckContext allocates on each hostile shape at 1 MiB, counted from
// runtime.MemStats.TotalAlloc. A check keeps none of the parse errors and
// tree events it sees, so a shape with one parse error per input byte
// costs about what a clean shape of its size does; a bound that grows
// with the error count means something on the check path records them
// again. Two garbage
// collections before each check empty the parser pool, so every shape is
// measured on a fresh parser, whatever scratch the shape before it left.
// The bounds hold for the production build; a race-instrumented binary
// allocates more, so it skips the gate, as core's TestCheckBytesPerCall
// does.
func TestHostileShapesAllocationBudget(t *testing.T) {
	if htmlparse.RaceEnabled {
		t.Skip("the byte bounds are for the uninstrumented build")
	}
	c := core.NewChecker()
	for _, hc := range htmlparse.HostileCases() {
		t.Run(hc.Name, func(t *testing.T) {
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.CheckContext(nil, hc.Input, 0); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > hc.MaxAlloc {
				t.Errorf("1 MiB check allocates %d B, bound %d", got, hc.MaxAlloc)
			}
		})
	}
}
