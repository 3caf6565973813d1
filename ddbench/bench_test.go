package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smoke makes one short run of a workload at a reduced stream length and
// decodes the result line it prints.
func smoke(t *testing.T, workload string, trace bool) (*report, result) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 10 * time.Millisecond, trace: trace, events: 600}
	if trace {
		o.spansDir = t.TempDir()
	}
	rep, err := bench(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, &out)
	}
	return rep, r
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(3, 500), w.gen(3, 500), w.gen(4, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations at seed 3 differ", w.name)
		}
		if reflect.DeepEqual(a.items, c.items) {
			t.Errorf("%s: seeds 3 and 4 generate the same stream", w.name)
		}
	}
	if streamSeed(3, 0) != 3 || streamSeed(3, 1) == streamSeed(3, 2) || streamSeed(3, 1) == streamSeed(4, 1) {
		t.Errorf("stream seeds are not distinct per seed and stream")
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	names, _, _ := declared(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json declares %v, the benchmark runs %v", names, ours)
	}
}

// TestSmokeEveryWorkload makes a short run of each workload in both modes:
// every declared metric is emitted with its declared unit and nothing
// else, no end-to-end metric reads 0, and no primitive fails.
func TestSmokeEveryWorkload(t *testing.T) {
	_, endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			rep, r := smoke(t, w.name, trace)
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 || r.Correct != rep.correct || r.Failed != rep.failed {
				t.Errorf("%s trace=%v: correct=%v, failed %d of %d, printed %+v",
					w.name, trace, rep.correct, rep.failed, rep.attempted, r)
			}
			got := map[string]string{}
			for name, m := range r.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
			for name, m := range r.Metrics {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
		}
	}
}

func TestDigestMismatchFailsEveryEvent(t *testing.T) {
	ref := &outcome{events: 100, digest: 1, detections: 5}
	same := &outcome{events: 100, digest: 1, detections: 5}
	differs := &outcome{events: 100, digest: 2, detections: 5}
	if f := failures(same, ref); f != 0 {
		t.Errorf("matching pass failed %d", f)
	}
	if f := failures(differs, ref); f != 100 {
		t.Errorf("mismatching pass failed %d, want all 100", f)
	}
	var out bytes.Buffer
	rep := &report{correct: false, attempted: 100, failed: 100, metrics: []metric{{"events_per_s", 1.5, "1/s"}}}
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), `{"correct":false,"attempted":100,"failed":100,"metrics":{"events_per_s":{"value":1.5,"unit":"1/s"}}}`+"\n") {
		t.Errorf("result line: %q", out.String())
	}
}

// TestGuardedMixMatchesDistsim anchors guarded-mix to the documented CLI:
// at seed 42 its stream is `distsim -sites 8 -events 4000 -seed 42`, and
// both report released=4000 detections=2943.
func TestGuardedMixMatchesDistsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/distsim")
	}
	in := genGuardedMix(streamSeed(42, 0), 4000)
	out, err := runPass(in, modeTimed, 4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.stats.Released != 4000 || out.stats.Detections != 2943 {
		t.Errorf("guarded-mix at seed 42: released=%d detections=%d, want 4000/2943",
			out.stats.Released, out.stats.Detections)
	}
	report, err := exec.Command("go", "run", "repro/cmd/distsim", "-sites", "8", "-events", "4000", "-seed", "42").Output()
	if err != nil {
		t.Fatalf("distsim: %v", err)
	}
	line := regexp.MustCompile(`released=(\d+) detections=(\d+)`).FindStringSubmatch(string(report))
	if line == nil {
		t.Fatalf("distsim printed no released= line:\n%s", report)
	}
	if line[1] != strconv.FormatUint(out.stats.Released, 10) || line[2] != strconv.FormatUint(out.stats.Detections, 10) {
		t.Errorf("distsim released=%s detections=%s, guarded-mix %d/%d",
			line[1], line[2], out.stats.Released, out.stats.Detections)
	}
}
