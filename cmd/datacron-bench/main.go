// datacron-bench runs the experiment suite E1–E15 (DESIGN.md §4,
// Experiments) and prints every result table.
//
//	datacron-bench            # full scale (minutes)
//	datacron-bench -quick     # test scale (seconds)
//	datacron-bench -only E3,E6
//
// End-to-end numbers for the serving daemon come from `bash bench/run.sh`
// (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/datacron-project/datacron/internal/experiments"
)

type experiment struct {
	id string
	fn func(bool) *experiments.Table
}

var all = []experiment{
	{"E1", experiments.E1Compression},
	{"E2", experiments.E2StreamThroughput},
	{"E3", experiments.E3Partitioning},
	{"E4", experiments.E4ParallelQuery},
	{"E5", experiments.E5LinkDiscovery},
	{"E6", experiments.E6TrajForecast},
	{"E7", experiments.E7EventRecognition},
	{"E8", experiments.E8EventForecast},
	{"E9", experiments.E9Hotspots},
	{"E10", experiments.E10EndToEnd},
	{"E11", experiments.E11Durability},
	{"E12", experiments.E12OnlineForecast},
	{"E13", experiments.E13Tiering},
	{"E14", experiments.E14Synopses},
	{"E15", experiments.E15Observability},
}

func main() {
	var (
		quick = flag.Bool("quick", false, "run test-scale workloads")
		only  = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E6); empty = all")
	)
	flag.Parse()

	run, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacron-bench:", err)
		os.Exit(2)
	}
	for _, e := range run {
		start := time.Now()
		tab := e.fn(*quick)
		fmt.Printf("%s\n(%s in %v)\n\n", tab, e.id, time.Since(start).Round(time.Millisecond))
	}
}

// selectExperiments returns the experiments -only names, in suite order
// (all of them for an empty list). An id that names no experiment is an
// error that lists the unknown ids and the valid ones.
func selectExperiments(only string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return all, nil
	}
	var run []experiment
	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.id
		if want[e.id] {
			run = append(run, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("-only: unknown experiment %s (valid: %s)",
			strings.Join(slices.Sorted(maps.Keys(want)), ", "), strings.Join(valid, ", "))
	}
	return run, nil
}
