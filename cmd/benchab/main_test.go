package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestResultParsesDdbenchLine(t *testing.T) {
	line := `{"correct":true,"attempted":96000,"failed":0,"metrics":{"events_per_s":{"value":11351.6,"unit":"1/s"},"setup_s":{"value":0.00027,"unit":"s"}}}`
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.metric("events_per_s") != 11351.6 || r.metric("setup_s") != 0.00027 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{5, 1, 4, 2, 3})
	if got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles = %v, want [2 3 4]", got)
	}
	if got := quartiles([]float64{1, 2, 3, 4}); got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("even-length quartiles = %v", got)
	}
	if got := quartiles([]float64{7}); got != [3]float64{7, 7, 7} {
		t.Fatalf("single-value quartiles = %v", got)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("401-403, 7 9,11")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{401, 402, 403, 7, 9, 11}
	if len(got) != len(want) {
		t.Fatalf("seeds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeds = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "x", "5-3", "1-y"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

func mkResult(eps, p50 float64) result {
	r := result{Correct: true}
	r.Metrics = map[string]struct{ Value float64 }{
		"events_per_s":             {eps},
		"detect_latency_p50_ticks": {p50},
		"detect_latency_p99_ticks": {400},
	}
	return r
}

func TestReportCountsWinsAndFlagsLatency(t *testing.T) {
	ps := []pair{
		{seed: 1, oldFirst: true, old: mkResult(100, 300), new: mkResult(120, 300)},
		{seed: 2, old: mkResult(110, 300), new: mkResult(105, 300)},
		{seed: 3, oldFirst: true, old: mkResult(90, 300), new: mkResult(130, 301)},
	}
	var out bytes.Buffer
	if err := report(&out, ps); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"new won 2/3 pairs", "median 100 -> 120", "old IQR 10", "exceeds old IQR: true", "DIFFER"} {
		if !strings.Contains(s, want) {
			t.Errorf("report lacks %q:\n%s", want, s)
		}
	}
	if strings.Count(s, "DIFFER") != 1 {
		t.Errorf("want exactly one latency flag:\n%s", s)
	}
}
