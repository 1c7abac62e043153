package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// side is one side of a comparison: per workload and metric, the values
// of every run in the given result files.
type side map[string]map[string][]float64

func loadSide(files []string) (side, error) {
	s := side{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rec.Results {
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], v.Value)
			}
		}
	}
	return s, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method),
// so the spread printed here is the spread the pipeline computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// namedMetric is one of the issue's named end-to-end metrics: where it
// exists and the bound -compare holds it to. Every one is printed by a run
// and written to result.json. BENCHMARK.json lists only those that exist
// on every workload, are never 0 and repeat within a quarter from run to
// run on the reference box, with the widest bound any workload needs;
// -compare holds all of them to the issue's bounds and says "unresolved"
// where these runs cannot tell.
type namedMetric struct {
	name, unit, better string
	// bound is the share of a's median by which b's may be worse; with
	// abs, the difference itself in the metric's unit.
	bound float64
	abs   bool
	on    func(w *workload) bool
}

func onAll(*workload) bool       { return true }
func onCrowd(w *workload) bool   { return !w.follower }
func onDurable(w *workload) bool { return w.durable && !w.follower }
func onReaders(w *workload) bool { return w.follower }

// namedMetrics are the issue's end-to-end metrics and regression bounds.
// ops_per_s is its cycles_per_s (crowd_*) and checkouts_per_s
// (follower_reads), wire_bytes_per_op its wire_bytes_per_cycle and
// wire_bytes_per_checkout: one name each, because BENCHMARK.json needs a
// name that exists on every workload.
var namedMetrics = []namedMetric{
	{"setup_s", "s", "lower", 0.25, false, onAll},
	// Not one of the issue's names: setup_s without its fixed-length
	// warm-up, where a quarter more is 30 ms and not 300 ms.
	{"stack_setup_s", "s", "lower", 0.25, false, onAll},
	{"ops_per_s", "1/s", "higher", 0.10, false, onAll},
	{"checkin_p50_us", "us", "lower", 0.10, false, onCrowd},
	{"checkin_p99_us", "us", "lower", 0.30, false, onCrowd},
	{"checkout_p50_us", "us", "lower", 0.10, false, onAll},
	{"checkout_p99_us", "us", "lower", 0.30, false, onAll},
	{"within_limit_share", "share", "higher", 0.01, true, onAll},
	{"failed_share", "share", "lower", 0, true, onAll}, // any rise
	{"wire_bytes_per_op", "B", "lower", 0.01, false, onAll},
	{"alloc_bytes_per_op", "B", "lower", 0.05, false, onAll},
	{"heap_live_mb", "MB", "lower", 0.15, false, onAll},
	{"journal_bytes_per_checkin", "B", "lower", 0.01, false, onDurable},
	{"recovery_s", "s", "lower", 0.15, false, onDurable},
	{"read_lag_p50_ms", "ms", "lower", 0.15, false, onReaders},
}

// verdictOf judges b against a for one metric: "unresolved" when either
// side's own quartile spread is wider than the bound, so these runs
// cannot tell; "worse" when b's median is worse than a's by more than the
// bound; "ok" otherwise. change is b's median over a's, or with an
// absolute bound b's median minus a's.
func verdictOf(nm namedMetric, a, b []float64) (change, spread float64, v string) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	var worseBy float64
	if nm.abs {
		change, spread = bm-am, math.Max(a3-a1, b3-b1)
		worseBy = change
	} else {
		change, spread = bm/am, math.Max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
		worseBy = change - 1
	}
	if nm.better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spread > nm.bound:
		return change, spread, "unresolved"
	case worseBy > nm.bound:
		return change, spread, "worse"
	}
	return change, spread, "ok"
}

// compareFiles prints one row per workload × named end-to-end metric:
// both medians, b's change against a with its base, the wider of the
// sides' quartile spreads, the bound and the verdict. Several files per
// side are pooled, so ten alternating pairs of runs are one command. Any
// "worse" row, or a metric one side lacks, fails the comparison.
func compareFiles(w io.Writer, aFiles, bFiles []string) error {
	a, err := loadSide(aFiles)
	if err != nil {
		return err
	}
	b, err := loadSide(bFiles)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\ta median\tb median\tchange\tbase (a)\tspread\tbound\truns a/b\tverdict\t")
	counts := map[string]int{}
	for i := range workloads {
		wl := &workloads[i]
		for _, nm := range namedMetrics {
			if !nm.on(wl) {
				continue
			}
			av, bv := a[wl.name][nm.name], b[wl.name][nm.name]
			bound, how := fmt.Sprintf("%.0f%%", nm.bound*100), "b/a %.4f"
			if nm.abs {
				bound, how = fmt.Sprintf("%g %s", nm.bound, nm.unit), "b-a %+.4f"
			}
			if len(av) == 0 || len(bv) == 0 {
				counts["missing"]++
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t-\t-\t-\t-\t-\t%s\t%d/%d\tmissing\t\n",
					wl.name, nm.name, nm.unit, nm.better, bound, len(av), len(bv))
				continue
			}
			_, am, _ := quartiles(av)
			_, bm, _ := quartiles(bv)
			change, spread, v := verdictOf(nm, av, bv)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t"+how+"\t%.6g\t%.4f\t%s\t%d/%d\t%s\t\n",
				wl.name, nm.name, nm.unit, nm.better, am, bm, change, am, spread, bound, len(av), len(bv), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok %d, worse %d, unresolved %d, missing %d\n", counts["ok"], counts["worse"], counts["unresolved"], counts["missing"])
	if bad := counts["worse"] + counts["missing"]; bad > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows or missing", bad)
	}
	return nil
}
