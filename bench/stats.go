package main

import (
	"bufio"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" interpolation Python's statistics.quantiles uses
// by default, so the spreads this program prints match the ones a
// comparison script computes from its JSON lines. A single sample is its
// own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0..100) of ds by the
// nearest-rank rule.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s)) + 0.5)
	return s[max(0, min(rank, len(s))-1)]
}

// bootClock starts the set-up clock of one boot and returns its reading:
// the CPU time, user and system, the process spends from here on. It
// collects garbage first, outside the clock, so every boot starts from
// the same heap.
//
// setup_s is CPU time rather than wall time because the boots of figures
// and tune are a millisecond or less, much of it file-system calls. While
// another process flushed writes to the same disk, the tune boot took
// five times as long on the wall clock but only a third longer in CPU
// time, and such spells last minutes, longer than a run. Work moved into
// a boot still costs CPU, so it still shows.
func bootClock() func() time.Duration {
	runtime.GC()
	t0 := cpuTime()
	return func() time.Duration { return cpuTime() - t0 }
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// promSum adds up every sample of the named family in Prometheus text
// exposition, whatever its labels: the benchmark reads the daemon's and
// the worker's own /metrics output rather than reaching into their
// internals.
func promSum(r io.Reader, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer family name sharing the prefix
		}
		i := strings.LastIndexByte(rest, ' ')
		if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
