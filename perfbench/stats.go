package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond is how many samples lie above the q-quantile: a percentile is
// reported only together with this count.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfCPU returns the user plus system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the on-CPU time of every thread of another process,
// from the scheduler's per-thread statistics (nanosecond resolution).
func procCPU(pid int) (time.Duration, error) {
	dir := procPath(pid, "task")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, e.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// A run is measured as many short segments (a pass, or a second of
// load) and summarized by the segment at the favourable quartile: the
// first quartile of a cost or a time, the third of a rate. The host
// steals CPU from the run in bursts of a few seconds, and a segment a
// burst hits only ever reads worse, so the favourable quartile follows
// the program while the median still moves with the neighbours' load.

func steadyCost(xs []float64) float64 { return quantile(xs, 0.25) }

func steadyRate(xs []float64) float64 { return quantile(xs, 0.75) }

// hostTimes is the machine's CPU time from /proc/stat, in clock ticks:
// time spent running anything, and time the hypervisor stole from the
// VM's CPUs while they had work.
type hostTimes struct{ busy, steal int64 }

func readHostTimes() (hostTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostTimes{}, err
		}
	}
	return hostTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// unstolen is the share of the runnable CPU time between a and b that
// the hypervisor did not steal. A thread that always has work loses
// about the stolen share of its wall-clock time, so wall × unstolen is
// the time the host actually ran the VM.
func unstolen(a, b hostTimes) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// resetPeakRSS starts a new peak resident set measurement for a process
// (pid 0 is this process): the kernel resets VmHWM to the current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMiB returns a process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

func procPath(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + name
}
