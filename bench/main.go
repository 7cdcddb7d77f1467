// Command bench is the repository's benchmark: it builds cmd/datacron-serve,
// runs it as a child process on a loopback port and drives it over HTTP with
// generated, never-repeating fleet streams. See README.md in this directory
// for the workloads, the metrics and how to read the output.
//
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1                 # all four workloads
//	bash bench/run.sh -seed 1 -trace 1        # plus the in-process traced run
//	bash bench/run.sh -quick                  # one-second scale
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json: the one place metric names, units and
// regression bounds are written down.
type contract struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runFile is what bench/out/<run>.json holds.
type runFile struct {
	Started string    `json:"started"`
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
}

// options are the command line.
type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	quick       bool
	runs        int
	compare     bool
	daemonFlags []string
	noKeepers   bool
	args        []string
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == keepAwakeFlag {
		cpu, _ := strconv.Atoi(os.Args[2]) // written by keepAwake
		runKeeper(cpu)
		return
	}
	var o options
	var trace int
	var dflags string
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 0, "scale: seconds of measured work per workload (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1 = also replay the layers in-process with spans on, and print the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "one lap of one second per workload")
	flag.IntVar(&o.runs, "runs", 1, "repeat the selected workloads this many times into one output file")
	flag.BoolVar(&o.compare, "compare", false, "compare two output files: bench -compare a.json b.json")
	flag.StringVar(&dflags, "daemon-flags", "", "extra datacron-serve flags, for profiling (e.g. \"-debug-addr 127.0.0.1:6060\"); numbers taken with it set are not benchmark results")
	flag.BoolVar(&o.noKeepers, "no-keep-awake", false, "do not keep the CPUs from idling (see awake.go); numbers taken with it set are not benchmark results")
	flag.Parse()
	o.trace, o.daemonFlags, o.args = trace == 1, strings.Fields(dflags), flag.Args()
	code, err := run(o)
	cleanupAll()
	stopKeepers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options) (int, error) {
	root, err := repoRoot()
	if err != nil {
		return 2, err
	}
	ct, err := loadContract(root)
	if err != nil {
		return 2, err
	}
	if o.compare {
		if len(o.args) != 2 {
			return 2, fmt.Errorf("-compare takes two output files")
		}
		return compareFiles(ct, o.args[0], o.args[1], os.Stdout)
	}
	e := &env{outDir: filepath.Join(root, "bench", "out"), seed: o.seed, seconds: o.seconds, laps: lapsPerRun, daemonFlags: o.daemonFlags}
	if e.seconds <= 0 {
		e.seconds = ct.RunSeconds
	}
	if o.quick {
		e.seconds = lapsPerRun // one second a lap
	}
	if o.quick || o.trace {
		// A traced run prints counts and in-process timings, which one lap
		// gives as well as three.
		e.laps = 1
	}
	selected := workloads
	if o.workload != "" {
		s, ok := findWorkload(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []spec{s}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanupAll()
		stopKeepers()
		os.Exit(130)
	}()

	if e.bin, err = buildDaemon(root); err != nil {
		return 1, err
	}
	if !o.noKeepers {
		if err := keepAwake(); err != nil {
			return 1, err
		}
	}
	out := runFile{Started: time.Now().UTC().Format(time.RFC3339), Trace: o.trace}
	code := 0
	var last *result
	for i := 0; i < o.runs; i++ {
		for _, s := range selected {
			r := newResult(s, e)
			if err := runWorkload(e, s, r); err != nil {
				r.violate("%v", err)
			}
			if o.trace {
				if err := traceLayers(e, r); err != nil {
					r.violate("traced run: %v", err)
				}
			}
			r.checkComplete(ct, o.trace)
			r.print(ct, o.trace, os.Stdout)
			if log := takeDaemonLog(); !r.Valid && len(log) > 0 {
				if err := os.WriteFile(filepath.Join(e.outDir, s.name+".stderr"), log, 0o644); err != nil {
					return 1, err
				}
			}
			out.Results = append(out.Results, r)
			last = r
			if !r.Valid {
				code = 1
			}
		}
	}
	name := fmt.Sprintf("run-seed%d-%d.json", o.seed, time.Now().UnixNano())
	if err := writeJSON(filepath.Join(e.outDir, name), out); err != nil {
		return 1, err
	}
	fmt.Printf("wrote bench/out/%s\n", name)
	if o.workload != "" {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(last.contractLine(ct, o.trace))
	}
	return code, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkComplete marks the run invalid when a metric BENCHMARK.json promises
// was not measured. A per-layer metric a workload does not exercise reads 0.
func (r *result) checkComplete(ct *contract, trace bool) {
	for _, m := range ct.EndToEnd {
		if v, ok := r.EndToEnd[m.Name]; !ok || v <= 0 {
			if !trace || m.Name != "setup_s" {
				r.violate("end-to-end metric %s not measured", m.Name)
			}
		}
	}
	for _, m := range ct.PerLayer {
		if _, ok := r.PerLayer[m.Name]; !ok {
			r.PerLayer[m.Name] = 0
		}
	}
}

// print writes every metric by name and unit, then the sample counts.
func (r *result) print(ct *contract, trace bool, w io.Writer) {
	state := "valid"
	if !r.Valid {
		state = "INVALID"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s\n", r.Workload, r.Seed, r.Seconds, state)
	fmt.Fprintf(w, "   daemon flags: %s\n   flush policy: %s\n", r.DaemonFlags, r.FlushPolicy)
	fmt.Fprintf(w, "   box slowness by lap (each timing is divided by that of its own stretch): %.3f\n", r.Slowness)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   violation: %s\n", v)
	}
	for _, m := range ct.EndToEnd {
		fmt.Fprintf(w, "   %-28s %14.4f %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "   %-28s %14.4f share (%d of %d requests)\n", "failed_share", share, r.Failed, r.Attempted)
	if trace {
		for _, m := range ct.PerLayer {
			fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
	}
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Samples[n]
		fmt.Fprintf(w, "   samples %-16s n=%-5d p25=%.3f ms  p50=%.3f ms  p%g=%.3f ms\n", n, s.N, s.P25, s.P50, 100*s.TailP, s.TailMS)
	}
}

// contractLine renders the driver's result object: every end-to-end metric
// with tracing off, every per-layer metric with it on.
func (r *result) contractLine(ct *contract, trace bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := ct.EndToEnd, r.EndToEnd
	if trace {
		defs, from = ct.PerLayer, r.PerLayer
	}
	metrics := map[string]val{}
	for _, m := range defs {
		metrics[m.Name] = val{from[m.Name], m.Unit}
	}
	raw, _ := json.Marshal(map[string]any{ // marshalling plain maps of numbers cannot fail
		"correct": r.Valid, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	})
	return string(raw)
}
