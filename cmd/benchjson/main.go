// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, so benchmark runs can be archived at the
// repo root (BENCH_pr3.json) and diffed across PRs without scraping text.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -out BENCH_pr3.json [-baseline BENCH_baseline.json]
//	benchjson -compare BENCH_pr4.json BENCH_pr5.json
//
// -compare reads two reports and prints a delta table: per benchmark,
// the median ns/op of each run (repeated -count lines collapse to their
// median) and the relative change, with allocations appended when both
// runs recorded them.  Benchmarks present in only one report are listed
// at the end.  `make bench-diff` drives it against the archived
// before/after files at the repo root.
//
// Stdin is the raw benchmark output.  Every line of the form
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   1 allocs/op   0.5 extra/op
//
// becomes one record with the recognized per-op measurements lifted into
// fields and any custom b.ReportMetric units preserved in "metrics".
// Repeated lines for the same benchmark (from -count=N) stay separate
// records; consumers aggregate as they see fit.  With -baseline, the
// given report's records are embedded under "baseline" so a single file
// carries a before/after comparison.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Record is one benchmark result line.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout: run metadata plus the records, optionally
// with a baseline run embedded for before/after reading.
type Report struct {
	Go       string   `json:"go,omitempty"`
	Pkg      []string `json:"packages,omitempty"`
	Records  []Record `json:"benchmarks"`
	Baseline []Record `json:"baseline,omitempty"`
}

// metricBound is one -min-metric floor or -max-metric ceiling: every
// benchmark in the new report that emits the named custom metric must keep
// its median on the allowed side of limit, and at least one benchmark must
// emit it at all (so deleting the gated benchmark cannot silently pass the
// gate).
type metricBound struct {
	name  string
	limit float64
	max   bool
}

// metricFlags collects repeated name=value occurrences of -min-metric
// (max false) or -max-metric (max true) into one shared bound list.
type metricFlags struct {
	bounds *[]metricBound
	max    bool
}

func (m metricFlags) String() string {
	if m.bounds == nil {
		return ""
	}
	var parts []string
	for _, b := range *m.bounds {
		if b.max == m.max {
			parts = append(parts, fmt.Sprintf("%s=%g", b.name, b.limit))
		}
	}
	return strings.Join(parts, ",")
}

func (m metricFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	limit, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad bound in %q: %v", s, err)
	}
	*m.bounds = append(*m.bounds, metricBound{name: name, limit: limit, max: m.max})
	return nil
}

func main() {
	out := flag.String("out", "", "output JSON file (default stdout)")
	baseline := flag.String("baseline", "", "existing benchjson report whose records are embedded as the baseline")
	compare := flag.Bool("compare", false, "compare two report files (old.json new.json) and print a delta table")
	maxAllocRegress := flag.Float64("max-alloc-regress", -1,
		"with -compare: fail (exit 1) if any benchmark's median allocs/op grew more than this percentage over the old report (0 = any growth fails)")
	var bounds []metricBound
	flag.Var(metricFlags{bounds: &bounds}, "min-metric",
		"with -compare: name=value floor on a custom b.ReportMetric unit in the new report (repeatable); fails if any benchmark's median falls below it, or if no benchmark reports it")
	flag.Var(metricFlags{bounds: &bounds, max: true}, "max-metric",
		"with -compare: name=value ceiling on a custom b.ReportMetric unit in the new report (repeatable); fails if any benchmark's median exceeds it, or if no benchmark reports it")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		oldRep, err := readReport(flag.Arg(0))
		if err == nil {
			var newRep *Report
			if newRep, err = readReport(flag.Arg(1)); err == nil {
				err = writeDelta(os.Stdout, flag.Arg(0), flag.Arg(1), oldRep.Records, newRep.Records)
				if err == nil && *maxAllocRegress >= 0 {
					bad := allocRegressions(oldRep.Records, newRep.Records, *maxAllocRegress)
					if len(bad) > 0 {
						for _, b := range bad {
							fmt.Fprintln(os.Stderr, "benchjson:", b)
						}
						fmt.Fprintf(os.Stderr, "benchjson: allocs/op budget exceeded (max regression %.1f%%)\n", *maxAllocRegress)
						os.Exit(1)
					}
				}
				if err == nil && len(bounds) > 0 {
					bad := metricShortfalls(newRep.Records, bounds)
					if len(bad) > 0 {
						for _, b := range bad {
							fmt.Fprintln(os.Stderr, "benchjson:", b)
						}
						fmt.Fprintln(os.Stderr, "benchjson: metric bound not met")
						os.Exit(1)
					}
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *maxAllocRegress >= 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -max-alloc-regress only applies with -compare")
		os.Exit(2)
	}
	if len(bounds) > 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -min-metric and -max-metric only apply with -compare")
		os.Exit(2)
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		rep.Baseline = base.Records
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// readReport loads a benchjson report file.
func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return &rep, nil
}

// aggregate collapses repeated -count records per benchmark to their
// median, which is robust against a single cold or preempted repeat.
type aggregate struct {
	NsPerOp     float64
	AllocsPerOp *float64
}

func aggregateRecords(recs []Record) (map[string]aggregate, []string) {
	ns := map[string][]float64{}
	allocs := map[string][]float64{}
	var order []string
	for _, r := range recs {
		if _, seen := ns[r.Name]; !seen {
			order = append(order, r.Name)
		}
		ns[r.Name] = append(ns[r.Name], r.NsPerOp)
		if r.AllocsPerOp != nil {
			allocs[r.Name] = append(allocs[r.Name], *r.AllocsPerOp)
		}
	}
	agg := make(map[string]aggregate, len(ns))
	for name, vals := range ns {
		a := aggregate{NsPerOp: median(vals)}
		if av, ok := allocs[name]; ok && len(av) == len(vals) {
			m := median(av)
			a.AllocsPerOp = &m
		}
		agg[name] = a
	}
	return agg, order
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// writeDelta prints the comparison table for two record sets.
func writeDelta(w io.Writer, oldName, newName string, oldRecs, newRecs []Record) error {
	oldAgg, _ := aggregateRecords(oldRecs)
	newAgg, newOrder := aggregateRecords(newRecs)

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\told ns/op\tnew ns/op\tdelta\tallocs/op\t\n")
	var onlyOld, onlyNew []string
	for _, name := range newOrder {
		na := newAgg[name]
		oa, ok := oldAgg[name]
		if !ok {
			onlyNew = append(onlyNew, name)
			continue
		}
		delta := "~"
		if oa.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (na.NsPerOp/oa.NsPerOp-1)*100)
		}
		allocCol := ""
		if oa.AllocsPerOp != nil && na.AllocsPerOp != nil {
			allocCol = fmt.Sprintf("%.0f -> %.0f", *oa.AllocsPerOp, *na.AllocsPerOp)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n",
			name, fmtNs(oa.NsPerOp), fmtNs(na.NsPerOp), delta, allocCol)
	}
	for name := range oldAgg {
		if _, ok := newAgg[name]; !ok {
			onlyOld = append(onlyOld, name)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	sort.Strings(onlyOld)
	if len(onlyOld) > 0 {
		fmt.Fprintf(w, "\nonly in %s: %s\n", oldName, strings.Join(onlyOld, ", "))
	}
	if len(onlyNew) > 0 {
		fmt.Fprintf(w, "only in %s: %s\n", newName, strings.Join(onlyNew, ", "))
	}
	return nil
}

// allocRegressions lists the benchmarks present in both runs whose
// median allocs/op grew beyond maxPct percent.  A benchmark the old run
// measured at zero allocations fails on any growth: there is no base to
// scale a tolerance from, and zero-alloc paths are exactly the ones the
// budget exists to protect.
func allocRegressions(oldRecs, newRecs []Record, maxPct float64) []string {
	oldAgg, _ := aggregateRecords(oldRecs)
	newAgg, newOrder := aggregateRecords(newRecs)
	var bad []string
	for _, name := range newOrder {
		na := newAgg[name]
		oa, ok := oldAgg[name]
		if !ok || oa.AllocsPerOp == nil || na.AllocsPerOp == nil {
			continue
		}
		o, n := *oa.AllocsPerOp, *na.AllocsPerOp
		if n > o*(1+maxPct/100) {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %.1f -> %.1f (limit %+.1f%%)", name, o, n, maxPct))
		}
	}
	return bad
}

// metricShortfalls enforces the -min-metric floors and -max-metric
// ceilings against the new report: per bound, every benchmark emitting
// the metric must have a median on the allowed side of it, and the metric
// must appear somewhere — a gate whose benchmark vanished should fail
// loudly, not pass vacuously.
func metricShortfalls(recs []Record, bounds []metricBound) []string {
	var bad []string
	for _, mm := range bounds {
		vals := map[string][]float64{}
		var order []string
		for _, r := range recs {
			v, ok := r.Metrics[mm.name]
			if !ok {
				continue
			}
			if _, seen := vals[r.Name]; !seen {
				order = append(order, r.Name)
			}
			vals[r.Name] = append(vals[r.Name], v)
		}
		kind := "floor"
		if mm.max {
			kind = "ceiling"
		}
		if len(order) == 0 {
			bad = append(bad, fmt.Sprintf("no benchmark reports metric %q (%s %g)", mm.name, kind, mm.limit))
			continue
		}
		for _, name := range order {
			if m := median(vals[name]); (mm.max && m > mm.limit) || (!mm.max && m < mm.limit) {
				bad = append(bad, fmt.Sprintf("%s: %s %.4g beyond %s %g", name, mm.name, m, kind, mm.limit))
			}
		}
	}
	return bad
}

// fmtNs keeps sub-microsecond results readable without drowning the
// slow end-to-end rows in decimals.
func fmtNs(v float64) string {
	if v >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") || strings.HasPrefix(line, "cpu:"):
			// metadata lines we don't need; go version isn't printed, so
			// record the toolchain-reported one lazily below
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = append(rep.Pkg, strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if ok {
				rep.Records = append(rep.Records, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Records) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	rep.Go = runtime.Version()
	return rep, nil
}

// parseLine parses one "BenchmarkX-8 N value unit [value unit]..." line.
func parseLine(line string) (Record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	// Strip the -GOMAXPROCS suffix: names are stable across machines.
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Record{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Record{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			v := val
			r.BytesPerOp = &v
		case "allocs/op":
			v := val
			r.AllocsPerOp = &v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	return r, true
}
