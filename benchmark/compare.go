package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare. A per-layer metric without a bound is listed with
// verdictInfo: it explains a difference, it does not gate one.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-"
)

// verdict judges b (the change) against a (the parent) for one metric.
func verdict(d metricDef, a, b measure) string {
	switch {
	case d.exact:
		if a.Value != b.Value {
			return verdictWorse
		}
		return verdictSame
	case d.bound == 0:
		return verdictInfo
	case a.Value == 0:
		return verdictUnresolved
	}
	// The parent's own spread hides any difference smaller than it. A file
	// holds one run, so the run-to-run spread of a median is estimated from
	// the spread of the run's n samples: IQR/sqrt(n).
	if a.N > 0 && a.IQR/math.Sqrt(float64(a.N))/math.Abs(a.Value) > d.bound {
		return verdictUnresolved
	}
	change := (b.Value - a.Value) / math.Abs(a.Value) // >0: b is larger
	if d.higher {
		change = -change
	}
	switch {
	case change > d.bound:
		return verdictWorse
	case change < -d.bound:
		return verdictBetter
	}
	return verdictSame
}

// compareFiles prints one row per (workload, metric) of two -out files and
// fails on any "worse" verdict or any rise in failed ops.
func compareFiles(pathA, pathB string) error {
	var a, b report
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Scale != b.Env.Scale || a.Env.Seconds != b.Env.Seconds {
		return fmt.Errorf("the files were measured with different settings: %+v vs %+v", a.Env, b.Env)
	}
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tA iqr\tB\tB iqr\tunit\tverdict")
	bad := 0
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			return fmt.Errorf("%s: workload %s is missing", pathB, ra.Workload)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t\t%d\t\tcount\t%s\n", ra.Workload, ra.Failed, rb.Failed, verdictWorse)
			bad++
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				ma, okA := ra.Metrics[d.name]
				mb, okB := rb.Metrics[d.name]
				if !okA || !okB {
					continue
				}
				v := verdict(d, ma, mb)
				if v == verdictWorse {
					bad++
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%s\t%s\n",
					ra.Workload, d.name, ma.Value, ma.IQR, mb.Value, mb.IQR, d.unit, v)
			}
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d rows are worse", bad)
	}
	return nil
}
