// Package obs is the repository's zero-dependency observability layer:
// lock-free sharded counters, fixed-layout mergeable latency histograms
// with quantile extraction, per-request stage spans, and a registry that
// renders all of it three ways — Prometheus text for /metrics, JSON for
// /statsz, and human-readable lines for the final stats print — from
// the same snapshot, so the views cannot disagree.
//
// Everything is nil-safe end to end: a nil *Registry hands out nil
// counters, histograms, and span tables whose methods no-op, so
// instrumented code threads metrics unconditionally and a disabled
// configuration costs one predictable branch per call site.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry owns a process's metrics. Registration (Counter, GaugeFunc,
// …) is mutex-guarded and expected at setup time; the instruments it
// hands out are lock-free on the record path.
type Registry struct {
	mu       sync.Mutex
	counters []namedCounter
	cfuncs   []namedIntFunc
	gauges   []namedFloatFunc
	hists    []namedHist
	spans    []*SpanTable
}

type namedCounter struct {
	name string
	c    *Counter
}

type namedIntFunc struct {
	name string
	fn   func() int64
}

type namedFloatFunc struct {
	name string
	fn   func() float64
}

type namedHist struct {
	name string
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a sharded counter. Metric names may
// embed Prometheus labels verbatim (`nfsd_executed_total{proc="READ"}`);
// the exporter splits the base name for TYPE lines. Registering the
// same name twice returns the existing counter. A nil registry returns
// a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, nc := range r.counters {
		if nc.name == name {
			return nc.c
		}
	}
	c := NewCounter()
	r.counters = append(r.counters, namedCounter{name, c})
	return c
}

// CounterFunc registers a cumulative value computed at snapshot time —
// the bridge for subsystems that already keep their own atomics (DRC,
// fault injector, disk model). No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfuncs = append(r.cfuncs, namedIntFunc{name, fn})
}

// GaugeFunc registers a point-in-time value computed at snapshot time.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, namedFloatFunc{name, fn})
}

// Histogram registers and returns a standalone latency histogram.
// Same-name registration returns the existing histogram; a nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, nh := range r.hists {
		if nh.name == name {
			return nh.h
		}
	}
	h := new(Histogram)
	r.hists = append(r.hists, namedHist{name, h})
	return h
}

// Spans registers and returns a span table with one row per procedure
// name. Same-name registration returns the existing table; a nil
// registry returns a nil table (whose Acquire returns nil spans).
func (r *Registry) Spans(name string, procs []string) *SpanTable {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.spans {
		if t.name == name {
			return t
		}
	}
	t := NewSpanTable(name, procs)
	r.spans = append(r.spans, t)
	return t
}

// Snapshot is one coherent read of the registry, the single source for
// /statsz JSON, /metrics text, and the final-stats lines.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]HistStats `json:"histograms,omitempty"`
	Spans      map[string]SpanStats `json:"spans,omitempty"`
}

// Dump snapshots every registered instrument. Counters and gauges with
// value zero are included — presence is part of the contract (CI greps
// /metrics for known names).
func (r *Registry) Dump() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistStats{},
		Spans:      map[string]SpanStats{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := append([]namedCounter(nil), r.counters...)
	cfuncs := append([]namedIntFunc(nil), r.cfuncs...)
	gauges := append([]namedFloatFunc(nil), r.gauges...)
	hists := append([]namedHist(nil), r.hists...)
	spans := append([]*SpanTable(nil), r.spans...)
	r.mu.Unlock()
	for _, nc := range counters {
		snap.Counters[nc.name] = nc.c.Load()
	}
	for _, nf := range cfuncs {
		snap.Counters[nf.name] = nf.fn()
	}
	for _, ng := range gauges {
		snap.Gauges[ng.name] = ng.fn()
	}
	for _, nh := range hists {
		if nh.h.Count() > 0 {
			snap.Histograms[nh.name] = nh.h.Stats()
		}
	}
	for _, t := range spans {
		st := t.Stats()
		if len(st.Procs) > 0 {
			snap.Spans[t.name] = st
		}
	}
	return snap
}

// baseName splits any embedded Prometheus label block off a metric
// name: `a_total{proc="READ"}` → `a_total`, `{proc="READ"}`.
func baseName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabels splices extra label pairs into a (possibly empty)
// `{...}` label block.
func mergeLabels(labels string, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// LabeledSnapshot pairs one registry's snapshot with the label value
// identifying its origin in a merge (e.g. a shard id).
type LabeledSnapshot struct {
	Value string
	Snap  Snapshot
}

// MergeLabeled combines per-origin snapshots into one, splicing
// `label="value"` into every metric name so same-named instruments from
// different origins stay distinct (`nfsd_executed_total{proc="READ"}` →
// `nfsd_executed_total{proc="READ",shard="2"}`). The result renders
// through WriteSnapshot with one TYPE header per family, exactly as a
// single registry would.
func MergeLabeled(label string, parts []LabeledSnapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistStats{},
		Spans:      map[string]SpanStats{},
	}
	for _, p := range parts {
		pair := fmt.Sprintf("%s=%q", label, p.Value)
		tag := func(name string) string {
			base, labels := baseName(name)
			return base + mergeLabels(labels, pair)
		}
		for name, v := range p.Snap.Counters {
			out.Counters[tag(name)] += v
		}
		for name, v := range p.Snap.Gauges {
			out.Gauges[tag(name)] = v
		}
		for name, hs := range p.Snap.Histograms {
			out.Histograms[tag(name)] = hs
		}
		for name, st := range p.Snap.Spans {
			out.Spans[tag(name)] = st
		}
	}
	return out
}

var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999},
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Counters export as-is; histograms and span tables export
// summary-style (`<name>_seconds{quantile=…}`, `_sum`, `_count`), span
// tables additionally per proc and per stage. Output is sorted by
// metric name so scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) {
	WriteSnapshot(w, r.Dump())
}

// WriteSnapshot is WritePrometheus for an already-taken snapshot —
// the path a merged multi-registry view (MergeLabeled) exports through,
// since a merge has no registry to dump.
func WriteSnapshot(w io.Writer, snap Snapshot) {
	var lines []string
	for name, v := range snap.Counters {
		base, _ := baseName(name)
		lines = append(lines,
			fmt.Sprintf("# TYPE %s counter\n%s %d\n", base, name, v))
	}
	for name, v := range snap.Gauges {
		base, _ := baseName(name)
		lines = append(lines,
			fmt.Sprintf("# TYPE %s gauge\n%s %g\n", base, name, v))
	}
	for name, hs := range snap.Histograms {
		lines = append(lines, promSummary(name, "", hs))
	}
	for name, st := range snap.Spans {
		// A span name may already carry a label block (merged
		// snapshots); the summary suffix must land on the base, not
		// after the braces.
		base, labels := baseName(name)
		for proc, ps := range st.Procs {
			procLbl := fmt.Sprintf("proc=%q", proc)
			lines = append(lines,
				promSummary(base+"_seconds"+labels, procLbl, ps.Total))
			for stage, hs := range ps.Stages {
				lines = append(lines, promSummary(base+"_stage_seconds"+labels,
					procLbl+fmt.Sprintf(",stage=%q", stage), hs))
			}
		}
	}
	sort.Strings(lines)
	// Labeled variants of one family sort adjacent; emit each family's
	// "# TYPE" header once (the format allows it only once per family).
	lastType := ""
	for _, l := range lines {
		if nl := strings.IndexByte(l, '\n'); nl >= 0 && strings.HasPrefix(l, "# TYPE ") {
			if l[:nl] == lastType {
				l = l[nl+1:]
			} else {
				lastType = l[:nl]
			}
		}
		io.WriteString(w, l)
	}
}

// promSummary renders one histogram summary as a Prometheus text block
// (seconds, per convention).
func promSummary(name, extraLabels string, hs HistStats) string {
	base, labels := baseName(name)
	if !strings.HasSuffix(base, "_seconds") {
		base += "_seconds"
		name = base + labels
	}
	if extraLabels != "" {
		labels = mergeLabels(labels, extraLabels)
		name = base + labels
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE %s summary\n", base)
	for _, pq := range promQuantiles {
		var v float64
		switch pq.label {
		case "0.5":
			v = hs.P50MS
		case "0.9":
			v = hs.P90MS
		case "0.99":
			v = hs.P99MS
		default:
			v = hs.P999MS
		}
		fmt.Fprintf(&b, "%s %g\n",
			base+mergeLabels(labels, fmt.Sprintf("quantile=%q", pq.label)),
			v/1e3)
	}
	fmt.Fprintf(&b, "%s_sum%s %g\n", base, labels, hs.SumMS/1e3)
	fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, hs.Count)
	return b.String()
}

// Lines renders the snapshot as human-readable final-stats lines —
// zero-valued counters are skipped here (the text view is for people;
// the machine views keep them). Counter names are grouped by base name
// so labeled variants print as one line.
func (r *Registry) Lines() []string {
	snap := r.Dump()
	var out []string

	// Group labeled counters: base -> "label=value" pairs in name order.
	groups := map[string][]string{}
	var order []string
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := snap.Counters[name]
		if v == 0 {
			continue
		}
		base, labels := baseName(name)
		if _, seen := groups[base]; !seen {
			order = append(order, base)
		}
		if labels == "" {
			groups[base] = append(groups[base], fmt.Sprintf("%d", v))
		} else {
			groups[base] = append(groups[base],
				fmt.Sprintf("%s=%d", labelValues(labels), v))
		}
	}
	for _, base := range order {
		out = append(out, fmt.Sprintf("%s: %s", base, strings.Join(groups[base], " ")))
	}

	gnames := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		if v := snap.Gauges[name]; v != 0 {
			out = append(out, fmt.Sprintf("%s: %g", name, v))
		}
	}

	hnames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		hs := snap.Histograms[name]
		out = append(out, fmt.Sprintf(
			"%s: n=%d mean=%.3fms p50=%.3fms p99=%.3fms",
			name, hs.Count, hs.MeanMS, hs.P50MS, hs.P99MS))
	}

	snames := make([]string, 0, len(snap.Spans))
	for name := range snap.Spans {
		snames = append(snames, name)
	}
	sort.Strings(snames)
	for _, name := range snames {
		st := snap.Spans[name]
		procs := make([]string, 0, len(st.Procs))
		for proc := range st.Procs {
			procs = append(procs, proc)
		}
		sort.Strings(procs)
		for _, proc := range procs {
			out = append(out, fmt.Sprintf("%s[%s]: %s", name, proc, st.Procs[proc].Note()))
		}
	}
	return out
}

// labelValues extracts just the values from a `{k="v",k2="v2"}` block
// for the compact text view: `READ` or `READ,in`.
func labelValues(labels string) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := strings.Split(inner, ",")
	vals := make([]string, 0, len(parts))
	for _, p := range parts {
		if i := strings.IndexByte(p, '='); i >= 0 {
			vals = append(vals, strings.Trim(p[i+1:], `"`))
		} else {
			vals = append(vals, p)
		}
	}
	return strings.Join(vals, ",")
}
