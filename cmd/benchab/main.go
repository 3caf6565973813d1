// Command benchab compares the repository benchmark (ddbench) between an
// older revision and the working tree with interleaved pairs of runs, so
// that a claimed gain can be read against the run-to-run noise.
//
// Usage, from the root of a checkout:
//
//	go run ./cmd/benchab -old HEAD~1 -workload wide-lossy-wire -pairs 10 -seeds 401-410
//	make bench-ab OLD=HEAD~1 WORKLOAD=wide-lossy-wire PAIRS=10 SEEDS=401-410
//
// The committed files of -old are exported with `git archive` into
// .bench_build/ab/<commit>/, and both sides run through their own
// ddbench/run.sh, so each builds from its own source under its own
// .bench_build/.  Pair i runs seed i of -seeds (cycling when the list is
// shorter than -pairs) on both sides, with -old first in even pairs and
// the working tree first in odd ones, so drift in the machine's speed
// does not favour one side.
//
// Each run's last line of standard output is ddbench's JSON result.  The
// report lists per-pair events_per_s, the number of pairs the working
// tree won, both medians and the old side's interquartile range, then
// quartiles of every end-to-end metric on both sides.  It flags any pair
// whose detect-latency percentiles differ (a change to the delivery
// schedule), and exits 1 if a run failed, reported failed events or an
// incorrect pass.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// result is the part of ddbench's JSON result line benchab reads.
type result struct {
	Correct bool                               `json:"correct"`
	Failed  int                                `json:"failed"`
	Metrics map[string]struct{ Value float64 } `json:"metrics"`
}

func (r result) metric(name string) float64 { return r.Metrics[name].Value }

// runSeconds is the measured length of every run.  It is fixed so that
// every comparison, on both sides, uses runs of the same length.
const runSeconds = 30

// pair is one seed run on both sides.
type pair struct {
	seed     int64
	oldFirst bool
	old, new result
}

func main() {
	oldRev := flag.String("old", "", "revision to compare the working tree against (required)")
	wl := flag.String("workload", "wide-lossy-wire", "ddbench workload")
	pairs := flag.Int("pairs", 10, "number of interleaved pairs")
	seedList := flag.String("seeds", "1-10", "seeds, comma- or space-separated; a-b is a range")
	flag.Parse()
	if *oldRev == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, *oldRev, *wl, *pairs, seeds); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, oldRev, wl string, n int, seeds []int64) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	commit, err := git(root, "rev-parse", "--verify", oldRev+"^{commit}")
	if err != nil {
		return err
	}
	oldDir, err := export(root, commit)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "benchab: %s, %d pairs of %d s runs; old = %s (%s), new = working tree\n",
		wl, n, runSeconds, oldRev, commit[:12])
	var ps []pair
	for i := 0; i < n; i++ {
		p := pair{seed: seeds[i%len(seeds)], oldFirst: i%2 == 0}
		sides := []struct {
			dir string
			out *result
		}{{oldDir, &p.old}, {root, &p.new}}
		if !p.oldFirst {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			r, err := bench(s.dir, wl, p.seed)
			if err != nil {
				return fmt.Errorf("pair %d, seed %d, %s: %w", i+1, p.seed, s.dir, err)
			}
			*s.out = r
		}
		fmt.Fprintf(os.Stderr, "benchab: pair %d/%d seed %d: %.0f -> %.0f events/s\n",
			i+1, n, p.seed, p.old.metric("events_per_s"), p.new.metric("events_per_s"))
		ps = append(ps, p)
	}
	return report(w, ps)
}

// export writes the committed files of commit under
// .bench_build/ab/<commit>/, once; later runs reuse the tree.
func export(root, commit string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "ab", commit)
	if _, err := os.Stat(filepath.Join(dir, "ddbench", "run.sh")); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "-C", root, "archive", "--format=tar", commit)
	untar := exec.Command("tar", "-x", "-C", tmp)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	untar.Stderr, archive.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", commit, err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("extracting %s: %w", commit, err)
	}
	return dir, os.Rename(tmp, dir)
}

// bench runs ddbench/run.sh in dir and parses its last line.
func bench(dir, wl string, seed int64) (result, error) {
	cmd := exec.Command("bash", "ddbench/run.sh", "--workload", wl,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(runSeconds), "--trace", "0")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	if runErr != nil || !r.Correct || r.Failed != 0 {
		return r, fmt.Errorf("correct=%v failed=%d: %v", r.Correct, r.Failed, runErr)
	}
	return r, nil
}

// report prints the per-pair table and the summaries.
func report(w io.Writer, ps []pair) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "pair\tseed\tfirst\told events/s\tnew events/s\tratio\tlatency p50/p99\t")
	wins := 0
	var olds, news []float64
	for i, p := range ps {
		o, n := p.old.metric("events_per_s"), p.new.metric("events_per_s")
		olds, news = append(olds, o), append(news, n)
		if n > o {
			wins++
		}
		first := "new"
		if p.oldFirst {
			first = "old"
		}
		lat := "equal"
		for _, m := range []string{"detect_latency_p50_ticks", "detect_latency_p99_ticks"} {
			if p.old.metric(m) != p.new.metric(m) {
				lat = "DIFFER"
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%.0f\t%.0f\t%.3f\t%s\t\n", i+1, p.seed, first, o, n, n/o, lat)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	oq, nq := quartiles(olds), quartiles(news)
	gain := nq[1] - oq[1]
	fmt.Fprintf(w, "\nevents_per_s: new won %d/%d pairs; median %.0f -> %.0f (%+.1f%%); old IQR %.0f; median gain exceeds old IQR: %v\n",
		wins, len(ps), oq[1], nq[1], 100*gain/oq[1], oq[2]-oq[0], gain > oq[2]-oq[0])

	names := map[string]bool{}
	for _, p := range ps {
		for m := range p.old.Metrics {
			names[m] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for m := range names {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\told q1 / median / q3\tnew q1 / median / q3\tmedian change\t")
	for _, m := range sorted {
		var o, n []float64
		for _, p := range ps {
			o, n = append(o, p.old.metric(m)), append(n, p.new.metric(m))
		}
		oq, nq := quartiles(o), quartiles(n)
		fmt.Fprintf(tw, "%s\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%+.1f%%\t\n",
			m, oq[0], oq[1], oq[2], nq[0], nq[1], nq[2], 100*(nq[1]-oq[1])/oq[1])
	}
	return tw.Flush()
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// parseSeeds reads a comma- or space-separated seed list whose items
// are seeds or inclusive a-b ranges.
func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		lo, hi, isRange := strings.Cut(f, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", f)
			}
		}
		for x := a; x <= b; x++ {
			seeds = append(seeds, x)
		}
	}
	if len(seeds) == 0 {
		return nil, errors.New("no seeds")
	}
	return seeds, nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
