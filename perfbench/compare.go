package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// compareMain runs the parent-vs-change rule: it runs the benchmark in
// two checkouts in alternating order, pair i with seed seed+i on both
// sides and the change's run_seconds on both, and reports for every
// end-to-end metric whether the change shows a gain under compareRule.
// No metric shows a gain when a change run is incorrect or the change
// fails more operations than its parent.
//
//	python3 perfbench/run.py compare --parent ../parent --change . --workload large-bisect --pairs 10
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", ".", "checkout of the change")
	workload := fs.String("workload", "", "workload to run")
	pairs := fs.Int("pairs", 10, "alternating pairs to run (the rule needs at least 10)")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
	// run.py appends these for the benchmark itself; compare ignores them.
	fs.String("root", "", "")
	fs.String("work", "", "")
	fs.String("commit", "", "")
	fs.Parse(args)
	if *parent == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "compare: --parent, --workload and at least one pair are required")
		return 2
	}
	spec, err := readSpec(*change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	side := map[string][]result{}
	for i := range *pairs {
		order := []string{*parent, *change}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, dir := range order {
			res, err := runCheckout(dir, *workload, *seed+int64(i), spec.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "compare: pair %d in %s: %v\n", i, dir, err)
				return 1
			}
			side[dir] = append(side[dir], res)
		}
	}
	veto := outcomeVeto(side[*parent], side[*change])
	if veto != "" {
		fmt.Println("no gain counts:", veto)
	}
	report := map[string]verdict{}
	var names []string
	for name := range side[*change][0].Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		var p, c []float64
		for i := range *pairs {
			p, c = append(p, side[*parent][i].Metrics[name].Value), append(c, side[*change][i].Metrics[name].Value)
		}
		v := compareRule(p, c, spec.Better[name] != "higher")
		if v.Gain && veto != "" {
			v.Gain, v.Reason = false, veto
		}
		report[name] = v
		fmt.Printf("%-20s parent %-12.6g change %-12.6g gain=%-5v %s\n", name, v.ParentMedian, v.ChangeMedian, v.Gain, v.Reason)
	}
	out, _ := json.Marshal(report)
	fmt.Println(string(out))
	return 0
}

// outcomeVeto says why no metric may show a gain: a change run returned
// incorrect results, or the change's median count of failed operations
// exceeds the parent's. It returns "" when neither holds.
func outcomeVeto(parent, change []result) string {
	var pf, cf []float64
	for i, r := range change {
		if !r.Correct {
			return fmt.Sprintf("change run %d is not correct", i)
		}
		cf = append(cf, float64(r.Failed))
	}
	for _, r := range parent {
		pf = append(pf, float64(r.Failed))
	}
	if p, c := median(pf), median(cf); c > p {
		return fmt.Sprintf("change fails a median %.6g operations per run, parent %.6g", c, p)
	}
	return ""
}

// runCheckout runs one benchmark run in dir and parses its result line.
func runCheckout(dir, workload string, seed int64, seconds int) (result, error) {
	var res result
	cmd := exec.Command("python3", "perfbench/run.py", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}

// benchSpec is what compare needs from a checkout's BENCHMARK.json: the
// run length and each metric's "better" direction.
type benchSpec struct {
	RunSeconds int
	Better     map[string]string
}

// readSpec reads dir's BENCHMARK.json.
func readSpec(dir string) (benchSpec, error) {
	spec := benchSpec{Better: map[string]string{}}
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	var file struct {
		RunSeconds int                             `json:"run_seconds"`
		EndToEnd   []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return spec, fmt.Errorf("%s/BENCHMARK.json: %w", dir, err)
	}
	if file.RunSeconds <= 0 {
		return spec, fmt.Errorf("%s/BENCHMARK.json: run_seconds %d", dir, file.RunSeconds)
	}
	spec.RunSeconds = file.RunSeconds
	for _, m := range append(file.EndToEnd, file.PerLayer...) {
		spec.Better[m.Name] = m.Better
	}
	return spec, nil
}
