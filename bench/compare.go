package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// loadRuns reads one or more output files (comma-separated) and groups their
// results by workload.
func loadRuns(arg string) (map[string][]*result, error) {
	by := map[string][]*result{}
	for _, path := range strings.Split(arg, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Results {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here matches the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares side b against side a for one metric. A metric whose own
// run-to-run spread exceeds its bound cannot be resolved either way.
func judge(m metricDef, a, b []float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	change = (mb - ma) / ma
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return verdictUnresolved, change
	case worse > m.Bound:
		return verdictWorse, change
	case worse < -m.Bound:
		return verdictBetter, change
	}
	return verdictUnchanged, change
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.EndToEnd[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failedShare(rs []*result) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// medianSlowness is the middle yardstick reading of rs: whether the two sides
// of a comparison ran on the same box in the same mood.
func medianSlowness(rs []*result) float64 {
	var all []float64
	for _, r := range rs {
		all = append(all, r.PerLayer["box.slowness"])
	}
	return median(all)
}

// hashMismatch reports a store read that returned different results in two
// runs of the same workload, seed and scale.
func hashMismatch(a, b []*result) string {
	for _, ra := range a {
		for _, rb := range b {
			if ra.Seed != rb.Seed || ra.Seconds != rb.Seconds {
				continue
			}
			for k, h := range ra.Hashes {
				if other, ok := rb.Hashes[k]; ok && other != h {
					return fmt.Sprintf("seed %d: %s", ra.Seed, k)
				}
			}
		}
	}
	return ""
}

// compareFiles prints one row per workload x end-to-end metric and returns
// exit code 1 when any row is worse, failed_share rose, a run was invalid or
// a result hash changed.
func compareFiles(ct *contract, pathA, pathB string, w io.Writer) (int, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return 2, err
	}
	var names []string
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 2, fmt.Errorf("the two files share no workload")
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "spread a", "spread b", "verdict")
	for _, name := range names {
		for _, m := range ct.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change := judge(m, va, vb)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%, n=%d/%d)\n",
				name, m.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), verdict, 100*m.Bound, len(va), len(vb))
		}
		fa, fb := failedShare(a[name]), failedShare(b[name])
		verdict := verdictUnchanged
		if fb > fa {
			verdict, code = verdictWorse, 1
		}
		fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %36s (must not rise)\n", name, "failed_share", fa, fb, verdict)
		fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %36s\n", name, "box.slowness", medianSlowness(a[name]), medianSlowness(b[name]), "(timings are already corrected for it)")
		for _, r := range append(append([]*result{}, a[name]...), b[name]...) {
			if !r.Valid {
				fmt.Fprintf(w, "%-16s invalid run (seed %d): %s\n", name, r.Seed, strings.Join(r.Violations, "; "))
				code = 1
			}
		}
		if k := hashMismatch(a[name], b[name]); k != "" {
			fmt.Fprintf(w, "%-16s result changed between the two sides: %s\n", name, k)
			code = 1
		}
	}
	return code, nil
}
