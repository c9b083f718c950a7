package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tails returns the median of xs and, when xs has at least forty
// samples, the highest of the 99.9th, 99th and 90th percentiles with at
// least ten samples beyond it, as figures <name>_p50_<unit> and
// <name>_p<pct>_<unit>, with values divided by div. A percentile read
// from fewer samples beyond it is no tail.
func tails(name, unit string, xs []float64, div float64) []figure {
	out := []figure{{name + "_p50_" + unit, quantile(xs, 0.5) / div, unit}}
	if len(xs) < 40 {
		return out
	}
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			return append(out, figure{name + "_" + p.label + "_" + unit, quantile(xs, p.q) / div, unit})
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runtimeSnap is the slice of runtime/metrics a traced run diffs.
type runtimeSnap struct {
	allocBytes, allocs uint64
	cpuTotal, cpuGC    float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.cpuTotal = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		out.cpuGC = s[3].Value.Float64()
	}
	return out
}

// isGauge reports whether a per-layer key is a level (reported as its
// value after the traced half) rather than a counter (reported as the
// traced half's delta). The simulated stack's counters are per pass.
func isGauge(key string) bool {
	if key == "nfsd.max_seqcount" {
		return true
	}
	for _, p := range []string{"sim.", "netsim.", "nfsclient.", "nfsserver.", "disk.", "buffercache.", "iosched."} {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}
