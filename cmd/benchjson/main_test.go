package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkMaxCostVsSetSize/components=8-8   2905300	       409.9 ns/op	     293 B/op	       3 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Name != "BenchmarkMaxCostVsSetSize/components=8" {
		t.Fatalf("name = %q (GOMAXPROCS suffix should be stripped)", r.Name)
	}
	if r.Iterations != 2905300 || r.NsPerOp != 409.9 {
		t.Fatalf("iterations/ns = %d/%v", r.Iterations, r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 293 || r.AllocsPerOp == nil || *r.AllocsPerOp != 3 {
		t.Fatalf("memory fields = %v/%v", r.BytesPerOp, r.AllocsPerOp)
	}
}

func TestParseLineCustomMetric(t *testing.T) {
	r, ok := parseLine("BenchmarkEndToEndDetection/sites=2-8  229  5096838 ns/op  149.0 detections  1043 latency-microticks")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Metrics["detections"] != 149 || r.Metrics["latency-microticks"] != 1043 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
	if r.BytesPerOp != nil {
		t.Fatal("no B/op on this line")
	}
}

func TestParseRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  \trepro\t1.2s",
		"BenchmarkBroken-8 notanumber 1 ns/op",
		"BenchmarkOdd-8 12 34", // value without unit
	} {
		if r, ok := parseLine(line); ok && strings.HasPrefix(line, "Benchmark") {
			t.Fatalf("parseLine(%q) accepted: %+v", line, r)
		}
	}
}

func TestParseReport(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: fake
BenchmarkA-8   100	       10.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkA-8   100	       11.0 ns/op	       0 B/op	       0 allocs/op
PASS
pkg: repro/internal/eventlog
BenchmarkB-8   200	       20.0 ns/op
ok
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 3 {
		t.Fatalf("records = %d, want 3 (repeated -count lines stay separate)", len(rep.Records))
	}
	if len(rep.Pkg) != 2 {
		t.Fatalf("packages = %v", rep.Pkg)
	}
	if rep.Records[2].Name != "BenchmarkB" || rep.Records[2].NsPerOp != 20 {
		t.Fatalf("record = %+v", rep.Records[2])
	}
}

func fp(v float64) *float64 { return &v }

func TestMedianCollapsesRepeats(t *testing.T) {
	agg, order := aggregateRecords([]Record{
		{Name: "BenchmarkA", NsPerOp: 10, AllocsPerOp: fp(3)},
		{Name: "BenchmarkA", NsPerOp: 90, AllocsPerOp: fp(3)}, // outlier repeat
		{Name: "BenchmarkA", NsPerOp: 12, AllocsPerOp: fp(3)},
		{Name: "BenchmarkB", NsPerOp: 20},
	})
	if len(order) != 2 || order[0] != "BenchmarkA" || order[1] != "BenchmarkB" {
		t.Fatalf("order = %v", order)
	}
	if a := agg["BenchmarkA"]; a.NsPerOp != 12 || a.AllocsPerOp == nil || *a.AllocsPerOp != 3 {
		t.Fatalf("BenchmarkA aggregate = %+v (median should shrug off the outlier)", a)
	}
	if b := agg["BenchmarkB"]; b.NsPerOp != 20 || b.AllocsPerOp != nil {
		t.Fatalf("BenchmarkB aggregate = %+v", b)
	}
}

func TestWriteDelta(t *testing.T) {
	oldRecs := []Record{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(4)},
		{Name: "BenchmarkGone", NsPerOp: 7},
	}
	newRecs := []Record{
		{Name: "BenchmarkA", NsPerOp: 90, AllocsPerOp: fp(2)},
		{Name: "BenchmarkNew", NsPerOp: 5},
	}
	var b strings.Builder
	if err := writeDelta(&b, "old.json", "new.json", oldRecs, newRecs); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"benchmark", "old ns/op", "new ns/op", "delta",
		"BenchmarkA", "-10.0%", "4 -> 2",
		"only in old.json: BenchmarkGone",
		"only in new.json: BenchmarkNew",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table lacks %q:\n%s", want, out)
		}
	}
}

func TestAllocRegressions(t *testing.T) {
	oldRecs := []Record{
		{Name: "BenchmarkFlat", NsPerOp: 10, AllocsPerOp: fp(10)},
		{Name: "BenchmarkGrew", NsPerOp: 10, AllocsPerOp: fp(10)},
		{Name: "BenchmarkZero", NsPerOp: 10, AllocsPerOp: fp(0)},
		{Name: "BenchmarkNoMem", NsPerOp: 10},
	}
	newRecs := []Record{
		{Name: "BenchmarkFlat", NsPerOp: 10, AllocsPerOp: fp(10)},
		{Name: "BenchmarkGrew", NsPerOp: 10, AllocsPerOp: fp(13)},
		{Name: "BenchmarkZero", NsPerOp: 10, AllocsPerOp: fp(1)},
		{Name: "BenchmarkNoMem", NsPerOp: 10},
		{Name: "BenchmarkOnlyNew", NsPerOp: 10, AllocsPerOp: fp(99)},
	}
	// 30% growth and 0 -> 1 both break a 10% budget; flat, unmeasured and
	// unmatched benchmarks never do.
	bad := allocRegressions(oldRecs, newRecs, 10)
	if len(bad) != 2 {
		t.Fatalf("regressions = %v, want BenchmarkGrew and BenchmarkZero", bad)
	}
	if !strings.Contains(bad[0], "BenchmarkGrew") || !strings.Contains(bad[1], "BenchmarkZero") {
		t.Fatalf("regressions = %v", bad)
	}
	// A 50% budget tolerates the 30% growth but still rejects any growth
	// from a zero-alloc baseline.
	bad = allocRegressions(oldRecs, newRecs, 50)
	if len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkZero") {
		t.Fatalf("regressions at 50%% = %v", bad)
	}
}

func TestMetricShortfalls(t *testing.T) {
	recs := []Record{
		{Name: "BenchmarkThroughput", NsPerOp: 10, Metrics: map[string]float64{"events/sec": 2.0e6}},
		{Name: "BenchmarkThroughput", NsPerOp: 10, Metrics: map[string]float64{"events/sec": 1.4e6}},
		{Name: "BenchmarkThroughput", NsPerOp: 10, Metrics: map[string]float64{"events/sec": 0.2e6}}, // outlier repeat
		{Name: "BenchmarkOther", NsPerOp: 10, Metrics: map[string]float64{"hit-rate": 0.5}},
	}
	// Median (1.4e6) clears the floor despite the cold repeat.
	if bad := metricShortfalls(recs, []metricBound{{name: "events/sec", limit: 1e6}}); len(bad) != 0 {
		t.Fatalf("shortfalls = %v, want none (median clears the floor)", bad)
	}
	// A floor above the median trips on the benchmark.
	bad := metricShortfalls(recs, []metricBound{{name: "events/sec", limit: 1.5e6}})
	if len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkThroughput") {
		t.Fatalf("shortfalls = %v, want BenchmarkThroughput", bad)
	}
	// A floor on a metric nothing reports fails loudly, not vacuously.
	bad = metricShortfalls(recs, []metricBound{{name: "gone/sec", limit: 1}})
	if len(bad) != 1 || !strings.Contains(bad[0], "gone/sec") {
		t.Fatalf("shortfalls = %v, want a missing-metric failure", bad)
	}
}

func TestMetricCeilings(t *testing.T) {
	recs := []Record{
		{Name: "BenchmarkHorizon", NsPerOp: 10, Metrics: map[string]float64{"growth-x": 1.1}},
		{Name: "BenchmarkHorizon", NsPerOp: 10, Metrics: map[string]float64{"growth-x": 1.3}},
		{Name: "BenchmarkHorizon", NsPerOp: 10, Metrics: map[string]float64{"growth-x": 9.0}}, // outlier repeat
	}
	// Median (1.3) stays under the ceiling despite the outlier.
	if bad := metricShortfalls(recs, []metricBound{{name: "growth-x", limit: 1.5, max: true}}); len(bad) != 0 {
		t.Fatalf("shortfalls = %v, want none (median under the ceiling)", bad)
	}
	bad := metricShortfalls(recs, []metricBound{{name: "growth-x", limit: 1.2, max: true}})
	if len(bad) != 1 || !strings.Contains(bad[0], "ceiling") {
		t.Fatalf("shortfalls = %v, want a ceiling breach", bad)
	}
	bad = metricShortfalls(recs, []metricBound{{name: "gone-x", limit: 1, max: true}})
	if len(bad) != 1 || !strings.Contains(bad[0], "gone-x") {
		t.Fatalf("shortfalls = %v, want a missing-metric failure", bad)
	}
}

func TestMinMetricFlagParse(t *testing.T) {
	var bounds []metricBound
	m := metricFlags{bounds: &bounds}
	if err := m.Set("events/sec=1000000"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("hit-rate=0.95"); err != nil {
		t.Fatal(err)
	}
	if err := (metricFlags{bounds: &bounds, max: true}).Set("growth-x=1.5"); err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 || bounds[0].name != "events/sec" || bounds[0].limit != 1e6 || bounds[1].limit != 0.95 ||
		bounds[0].max || !bounds[2].max || bounds[2].limit != 1.5 {
		t.Fatalf("flags = %+v", bounds)
	}
	if got := m.String(); got != "events/sec=1e+06,hit-rate=0.95" {
		t.Fatalf("min-metric String() = %q", got)
	}
	for _, bad := range []string{"noequals", "=5", "x=notanumber"} {
		if err := m.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

func TestParseEmptyErrors(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\n"))); err == nil {
		t.Fatal("expected an error on input with no benchmark lines")
	}
}
