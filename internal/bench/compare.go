// Benchmark comparison with variance discipline — the `nfsbench
// compare` engine. Two runs of the same experiment (two saved
// artifacts, or two live executions interleaved round by round) are
// paired cell by cell (experiment, series, X value) and each pair is
// tested the way benchstat does it: medians with bootstrap confidence
// intervals, a Mann-Whitney U test for "is this the same
// distribution?", and a verdict that flags only differences that clear
// run-to-run noise. The paper's complaint is benchmark numbers read
// without error bars; this file is the harness refusing to produce
// them.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"nfstricks/internal/stats"
)

// CompareOptions parameterizes a comparison. The zero value gets
// benchstat-flavored defaults: alpha 0.05, 95% confidence intervals,
// 1000 bootstrap resamples, no minimum-effect floor.
type CompareOptions struct {
	// Alpha is the Mann-Whitney significance level; differences with
	// p >= Alpha are reported as noise.
	Alpha float64
	// Confidence is the bootstrap CI level (0.95 = 95%).
	Confidence float64
	// MinEffectPct ignores median shifts smaller than this percentage
	// even when statistically significant — cross-machine comparisons
	// (CI runners) need an effect floor on top of the noise test.
	MinEffectPct float64
	// Resamples is the bootstrap resample count.
	Resamples int
	// Seed makes the bootstrap deterministic.
	Seed int64
}

// defaultAlpha is compare's significance level when none is given.
const defaultAlpha = 0.05

func (o CompareOptions) filled() CompareOptions {
	if o.Alpha <= 0 {
		o.Alpha = defaultAlpha
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.Resamples <= 0 {
		o.Resamples = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// CellKey names one measured cell: an experiment, one of its series,
// and one X value.
type CellKey struct {
	Exp    string `json:"exp"`
	Series string `json:"series"`
	X      int    `json:"x"`
}

func (k CellKey) String() string {
	return fmt.Sprintf("%s/%s x=%d", k.Exp, k.Series, k.X)
}

// CellDelta is the comparison of one cell across the two runs.
type CellDelta struct {
	Key      CellKey
	Old, New stats.Sample
	// OldCI and NewCI are bootstrap confidence intervals for each
	// side's median; ShiftCI is the interval for median(new) −
	// median(old). With raw samples absent on either side (an artifact
	// written before Values existed) the intervals fall back to the
	// normal approximation from mean/stddev and Note says so.
	OldCI, NewCI, ShiftCI [2]float64
	// DeltaPct is the median shift as a percentage of the old median.
	DeltaPct float64
	// P is the Mann-Whitney two-sided p-value (NaN in fallback mode —
	// rank tests need the raw runs).
	P float64
	// LowerIsBetter is the direction used for the verdict.
	LowerIsBetter bool
	// Significant: the difference clears the noise (p < alpha AND the
	// shift CI excludes zero AND |DeltaPct| >= MinEffectPct).
	Significant bool
	// Regression and Improvement orient a significant difference.
	Regression  bool
	Improvement bool
	Note        string
}

// Comparison is the full result of comparing two runs.
type Comparison struct {
	Opt              CompareOptions
	OldMeta, NewMeta RunMeta
	Cells            []CellDelta
	// Unpaired lists cells present on only one side (new experiments,
	// renamed series, different sweeps) — reported, never gated on.
	Unpaired []string
}

// CompareArtifacts pairs every cell of old and new by (experiment,
// series label, X value) and tests each pair.
func CompareArtifacts(old, new *Artifact, opt CompareOptions) *Comparison {
	opt = opt.filled()
	c := &Comparison{Opt: opt, OldMeta: old.Meta, NewMeta: new.Meta}
	seenNew := map[CellKey]bool{}
	for _, ro := range old.Results {
		rn, ok := new.ResultByID(ro.ID)
		if !ok {
			c.Unpaired = append(c.Unpaired, fmt.Sprintf("%s (old only)", ro.ID))
			continue
		}
		for si := range ro.Series {
			so := &ro.Series[si]
			sn, ok := rn.SeriesByLabel(so.Label)
			if !ok {
				c.Unpaired = append(c.Unpaired,
					fmt.Sprintf("%s/%s (old only)", ro.ID, so.Label))
				continue
			}
			newX := map[int]int{}
			for xi, x := range rn.X {
				newX[x] = xi
			}
			for xi, x := range ro.X {
				key := CellKey{Exp: ro.ID, Series: so.Label, X: x}
				nxi, ok := newX[x]
				if !ok || xi >= len(so.Samples) || nxi >= len(sn.Samples) {
					c.Unpaired = append(c.Unpaired, key.String()+" (old only)")
					continue
				}
				seenNew[key] = true
				c.Cells = append(c.Cells,
					compareCell(key, so.Samples[xi], sn.Samples[nxi], so.LowerIsBetter(), opt))
			}
		}
	}
	// Anything in new that never paired.
	for _, rn := range new.Results {
		ro, ok := old.ResultByID(rn.ID)
		if !ok {
			c.Unpaired = append(c.Unpaired, fmt.Sprintf("%s (new only)", rn.ID))
			continue
		}
		for si := range rn.Series {
			sn := &rn.Series[si]
			if _, ok := ro.SeriesByLabel(sn.Label); !ok {
				c.Unpaired = append(c.Unpaired,
					fmt.Sprintf("%s/%s (new only)", rn.ID, sn.Label))
				continue
			}
			for xi, x := range rn.X {
				key := CellKey{Exp: rn.ID, Series: sn.Label, X: x}
				if !seenNew[key] && xi < len(sn.Samples) {
					c.Unpaired = append(c.Unpaired, key.String()+" (new only)")
				}
			}
		}
	}
	return c
}

// compareCell tests one paired cell. With raw runs on both sides it is
// the real thing: Mann-Whitney on the runs, bootstrap CI on the median
// shift. With raw runs missing on either side (old artifacts) it falls
// back to a normal approximation from the summary stats — still an
// interval, honestly labeled.
func compareCell(key CellKey, a, b stats.Sample, lower bool, opt CompareOptions) CellDelta {
	d := CellDelta{Key: key, Old: a, New: b, LowerIsBetter: lower, P: math.NaN()}

	haveRaw := len(a.Values) > 0 && len(b.Values) > 0
	var oldCenter, newCenter float64
	if haveRaw {
		oldCenter, newCenter = stats.Median(a.Values), stats.Median(b.Values)
		d.OldCI[0], d.OldCI[1] = stats.BootstrapMedianCI(a.Values, opt.Resamples, opt.Confidence, opt.Seed)
		d.NewCI[0], d.NewCI[1] = stats.BootstrapMedianCI(b.Values, opt.Resamples, opt.Confidence, opt.Seed)
		d.ShiftCI[0], d.ShiftCI[1] = stats.BootstrapShiftCI(a.Values, b.Values, opt.Resamples, opt.Confidence, opt.Seed)
		_, d.P = stats.MannWhitney(a.Values, b.Values)
	} else {
		// Normal-approximation fallback: center on the median when the
		// artifact recorded one, else the mean; the interval half-width
		// is z·s/√n per side and the shift interval is Welch-style.
		oldCenter, newCenter = a.Median, b.Median
		if oldCenter == 0 {
			oldCenter = a.Mean
		}
		if newCenter == 0 {
			newCenter = b.Mean
		}
		z := zQuantile(opt.Confidence)
		seA, seB := normalSE(a), normalSE(b)
		d.OldCI = [2]float64{oldCenter - z*seA, oldCenter + z*seA}
		d.NewCI = [2]float64{newCenter - z*seB, newCenter + z*seB}
		shift := newCenter - oldCenter
		seShift := math.Sqrt(seA*seA + seB*seB)
		d.ShiftCI = [2]float64{shift - z*seShift, shift + z*seShift}
		d.Note = "no raw samples on one side; normal-approximation fallback"
	}

	if oldCenter != 0 {
		d.DeltaPct = (newCenter - oldCenter) / math.Abs(oldCenter) * 100
	}
	ciExcludesZero := d.ShiftCI[0] > 0 || d.ShiftCI[1] < 0
	pSignificant := !haveRaw || d.P < opt.Alpha // fallback mode has no p; CI carries the test
	d.Significant = pSignificant && ciExcludesZero &&
		math.Abs(d.DeltaPct) >= opt.MinEffectPct
	if d.Significant {
		worse := d.DeltaPct < 0
		if lower {
			worse = d.DeltaPct > 0
		}
		d.Regression = worse
		d.Improvement = !worse
	}
	return d
}

// normalSE is the standard error of the mean from summary stats.
func normalSE(s stats.Sample) float64 {
	if s.N <= 1 {
		return 0
	}
	return s.StdDev / math.Sqrt(float64(s.N))
}

// zQuantile returns the two-sided normal quantile for the given
// confidence level via bisection on erfc (no tables, no deps).
func zQuantile(conf float64) float64 {
	// Find z with erfc(z/√2) = 1-conf.
	target := 1 - conf
	lo, hi := 0.0, 10.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if math.Erfc(mid/math.Sqrt2) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Regressions returns the cells whose significant difference goes the
// wrong way, the list the gate fails on.
func (c *Comparison) Regressions() []CellDelta {
	var out []CellDelta
	for _, d := range c.Cells {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Improvements returns the cells that got significantly better.
func (c *Comparison) Improvements() []CellDelta {
	var out []CellDelta
	for _, d := range c.Cells {
		if d.Improvement {
			out = append(out, d)
		}
	}
	return out
}

// metaLine renders one side's provenance for the report header.
func metaLine(m RunMeta) string {
	rev := m.GitRev
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "unknown-rev"
	}
	if m.GitDirty {
		rev += "+dirty"
	}
	host := m.Hostname
	if host == "" {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s on %s at %s (runs=%d scale=%d seed=%d)",
		rev, host, m.Timestamp, m.Runs, m.Scale, m.Seed)
}

// ci formats an interval compactly.
func ci(iv [2]float64) string {
	return fmt.Sprintf("[%.3g, %.3g]", iv[0], iv[1])
}

// Format renders the full plain-text comparison report: provenance,
// per-cell medians with confidence intervals, and a verdict column
// that only ever says something when the difference clears noise.
func (c *Comparison) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compare: old = %s\n", metaLine(c.OldMeta))
	fmt.Fprintf(&b, "         new = %s\n", metaLine(c.NewMeta))
	fmt.Fprintf(&b, "alpha=%g confidence=%g%% min-effect=%g%% resamples=%d\n",
		c.Opt.Alpha, c.Opt.Confidence*100, c.Opt.MinEffectPct, c.Opt.Resamples)
	if c.OldMeta.Hostname != "" && c.NewMeta.Hostname != "" &&
		c.OldMeta.Hostname != c.NewMeta.Hostname {
		fmt.Fprintf(&b, "warning: runs come from different hosts — absolute medians are not comparable machines; interpret with care\n")
	}
	b.WriteByte('\n')

	lastExp := ""
	for _, d := range c.Cells {
		if d.Key.Exp != lastExp {
			if lastExp != "" {
				b.WriteByte('\n')
			}
			lastExp = d.Key.Exp
			fmt.Fprintf(&b, "%s:\n", d.Key.Exp)
			fmt.Fprintf(&b, "  %-34s %6s  %22s  %22s  %18s  %8s  %s\n",
				"series", "x", "old median "+fmt.Sprintf("%g%% CI", c.Opt.Confidence*100),
				"new median CI", "delta", "p", "")
		}
		verdict := ""
		switch {
		case d.Regression:
			verdict = "REGRESSION"
		case d.Improvement:
			verdict = "improvement"
		}
		delta := "~"
		if d.Significant {
			delta = fmt.Sprintf("%+.1f%%", d.DeltaPct)
		}
		p := "-"
		if !math.IsNaN(d.P) {
			p = fmt.Sprintf("%.3f", d.P)
		}
		oldMed, newMed := d.Old.Median, d.New.Median
		if oldMed == 0 {
			oldMed = d.Old.Mean
		}
		if newMed == 0 {
			newMed = d.New.Mean
		}
		fmt.Fprintf(&b, "  %-34s %6d  %9.4g %-12s  %9.4g %-12s  %18s  %8s  %s\n",
			d.Key.Series, d.Key.X,
			oldMed, ci(d.OldCI), newMed, ci(d.NewCI), delta, p, verdict)
		if d.Note != "" {
			fmt.Fprintf(&b, "    note: %s\n", d.Note)
		}
	}
	if len(c.Unpaired) > 0 {
		fmt.Fprintf(&b, "\nunpaired cells (not compared):\n")
		for _, u := range c.Unpaired {
			fmt.Fprintf(&b, "  %s\n", u)
		}
	}
	b.WriteByte('\n')
	b.WriteString(c.GateSummary())
	return b.String()
}

// GateSummary renders the verdict paragraph the gate prints: PASS, or
// FAIL with every regressing cell named with its delta and interval.
func (c *Comparison) GateSummary() string {
	regs := c.Regressions()
	var b strings.Builder
	if len(regs) == 0 {
		imps := len(c.Improvements())
		fmt.Fprintf(&b, "gate: PASS — %d cells compared, 0 regressions beyond noise (%d improvements)\n",
			len(c.Cells), imps)
		return b.String()
	}
	fmt.Fprintf(&b, "gate: FAIL — %d of %d cells regressed beyond noise:\n", len(regs), len(c.Cells))
	if c.Opt.MinEffectPct == 0 {
		// Per-cell alpha with no effect floor means a wide sweep WILL
		// flag spurious cells at roughly alpha/2 per cell — that is what
		// alpha means. Say so next to the verdict instead of letting a
		// small-delta flag masquerade as a finding.
		fmt.Fprintf(&b, "  (no -min-effect floor: across %d cells expect ~%.1f spurious flags per direction at alpha=%g; small deltas below your noise floor may be chance)\n",
			len(c.Cells), float64(len(c.Cells))*c.Opt.Alpha/2, c.Opt.Alpha)
	}
	for _, d := range regs {
		p := ""
		if !math.IsNaN(d.P) {
			p = fmt.Sprintf(", p=%.3f", d.P)
		}
		oldMed, newMed := d.Old.Median, d.New.Median
		if oldMed == 0 {
			oldMed = d.Old.Mean
		}
		if newMed == 0 {
			newMed = d.New.Mean
		}
		fmt.Fprintf(&b, "  %s: median %.4g -> %.4g (%+.1f%%, shift CI %s%s)\n",
			d.Key, oldMed, newMed, d.DeltaPct, ci(d.ShiftCI), p)
	}
	return b.String()
}

// LoadArtifact reads an nfsbench -json artifact from disk.
func LoadArtifact(path string) (*Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(a.Results) == 0 {
		return nil, fmt.Errorf("%s: artifact has no results", path)
	}
	return &a, nil
}

// RoundRunner produces one single-repetition Result for round r —
// the unit of interleaved A/B execution.
type RoundRunner func(round int) (*Result, error)

// InProcessRunner executes the experiment in this process, one
// repetition per round, seeding round r with baseSeed+r.
func InProcessRunner(e Experiment, p Params, baseSeed int64) RoundRunner {
	return func(round int) (*Result, error) {
		rp := p
		rp.Runs = 1
		rp.Seed = baseSeed + int64(round)
		rp.ProfileDir = "" // profiles would serialize the interleave
		return e.Run(rp)
	}
}

// BinaryRunner executes a prebuilt nfsbench binary (typically built
// from another git ref) for one repetition per round, reading the
// result back through a JSON artifact. This is how `compare` runs an
// experiment "across two refs": build each ref's nfsbench, then
// interleave single-run invocations of the two binaries. Older
// binaries whose artifacts lack raw Values still merge (a single-run
// sample's mean IS its one value).
func BinaryRunner(bin, expID string, p Params, baseSeed int64) RoundRunner {
	return func(round int) (*Result, error) {
		dir, err := os.MkdirTemp("", "nfsbench-compare-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		out := filepath.Join(dir, "round.json")
		cmd := exec.Command(bin,
			"-exp", expID,
			"-runs", "1",
			"-scale", strconv.Itoa(p.Scale),
			"-seed", strconv.FormatInt(baseSeed+int64(round), 10),
			"-json", out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s round %d: %w\n%s", bin, round, err, msg)
		}
		a, err := LoadArtifact(out)
		if err != nil {
			return nil, err
		}
		r, ok := a.ResultByID(expID)
		if !ok {
			return nil, fmt.Errorf("%s round %d: artifact lacks result %q", bin, round, expID)
		}
		return r, nil
	}
}

// RunInterleaved executes `rounds` repetitions of A and B back to
// back, alternating which side goes first each round, and returns the
// merged per-side results. Interleaving is the point: slow machine
// drift (thermal throttling, background load) lands on both sides of
// the comparison instead of on whichever ran last — the discipline the
// zcav-live cells apply within one experiment, promoted to the
// cross-run comparison itself.
func RunInterleaved(a, b RoundRunner, rounds int) (*Result, *Result, error) {
	if rounds <= 0 {
		rounds = 5
	}
	var accA, accB *Result
	for round := 0; round < rounds; round++ {
		first, second := a, b
		firstAcc, secondAcc := &accA, &accB
		if round%2 == 1 {
			first, second = b, a
			firstAcc, secondAcc = &accB, &accA
		}
		r1, err := first(round)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		if *firstAcc, err = mergeRound(*firstAcc, r1); err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		r2, err := second(round)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		if *secondAcc, err = mergeRound(*secondAcc, r2); err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	finalizeMerged(accA)
	finalizeMerged(accB)
	return accA, accB, nil
}

// mergeRound folds one round's single-run result into the
// accumulator: per-cell raw values concatenate in round order. The
// result structure (X sweep, series labels) must match across rounds —
// it is the same experiment at the same scale.
func mergeRound(acc, next *Result) (*Result, error) {
	if acc == nil {
		// Deep-copy so later rounds can't alias the first result.
		cp := *next
		cp.Series = make([]Series, len(next.Series))
		for i, s := range next.Series {
			cs := s
			cs.Samples = make([]stats.Sample, len(s.Samples))
			for j, sm := range s.Samples {
				sm.Values = roundValues(sm)
				cs.Samples[j] = sm
			}
			cp.Series[i] = cs
		}
		cp.X = append([]int(nil), next.X...)
		cp.Notes = append([]string(nil), next.Notes...)
		return &cp, nil
	}
	if acc.ID != next.ID {
		return nil, fmt.Errorf("merge: result id %q vs %q", acc.ID, next.ID)
	}
	if len(acc.Series) != len(next.Series) {
		return nil, fmt.Errorf("merge %s: series count %d vs %d", acc.ID, len(acc.Series), len(next.Series))
	}
	for i := range next.Series {
		sa, sn := &acc.Series[i], &next.Series[i]
		if sa.Label != sn.Label {
			return nil, fmt.Errorf("merge %s: series %q vs %q", acc.ID, sa.Label, sn.Label)
		}
		if len(sa.Samples) != len(sn.Samples) {
			return nil, fmt.Errorf("merge %s/%s: %d vs %d cells", acc.ID, sa.Label, len(sa.Samples), len(sn.Samples))
		}
		for j := range sn.Samples {
			sa.Samples[j].Values = append(sa.Samples[j].Values, roundValues(sn.Samples[j])...)
		}
	}
	return acc, nil
}

// roundValues extracts a round's raw values; a single-run sample
// without recorded Values (an older binary across the exec boundary)
// contributes its mean, which for one run is the value itself.
func roundValues(sm stats.Sample) []float64 {
	if len(sm.Values) > 0 {
		return append([]float64(nil), sm.Values...)
	}
	if sm.N == 1 {
		return []float64{sm.Mean}
	}
	return nil
}

// finalizeMerged recomputes every summary from the accumulated values.
func finalizeMerged(r *Result) {
	if r == nil {
		return
	}
	for i := range r.Series {
		s := &r.Series[i]
		for j := range s.Samples {
			s.Samples[j] = stats.Summarize(s.Samples[j].Values)
		}
	}
}
