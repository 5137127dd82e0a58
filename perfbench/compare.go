package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareFiles prints, per workload, the median of every end-to-end metric
// in two sets of result records (a results.jsonl file, or saved standard
// output) and the change between them. It flags any model.* count that
// differs between the two sets for the same workload and seed, since a
// change meant only to speed the simulator up must leave them identical,
// and any difference of host fingerprint, since host times from two
// machines are not comparable.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\truns")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := metricValues(olds, wl.name, d.name), metricValues(news, wl.name, d.name)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			mo, mn := median(o), median(n)
			change := "n/a"
			if len(o) > 0 && len(n) > 0 && mo != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(mn-mo)/mo)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%s\t%d/%d\n",
				wl.name, d.name, mo, d.unit, mn, d.unit, change, len(o), len(n))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, line := range modelDiffs(olds, news) {
		fmt.Fprintln(w, "MODEL DIFF", line)
	}
	for _, line := range hostDiffs(olds, news) {
		fmt.Fprintln(w, "HOST DIFF", line)
	}
	return nil
}

// readRecords reads every record in a file: bare records, one per line, as
// in results.jsonl, or {"record": ...} lines from standard output. Other
// lines are skipped.
func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var wrapped struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &wrapped) == nil && wrapped.Record != nil {
			recs = append(recs, *wrapped.Record)
			continue
		}
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return recs, nil
}

// metricValues collects one end-to-end metric of a workload's untraced runs.
func metricValues(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// modelDiffs lists each (workload, seed, model count) whose value differs
// between the two sets, or within one set.
func modelDiffs(olds, news []record) []string {
	type key struct {
		workload string
		seed     int64
		count    string
	}
	seen := map[key]map[float64]bool{}
	for _, set := range [][]record{olds, news} {
		for _, r := range set {
			for name, v := range r.Model {
				k := key{r.Workload, r.Seed, name}
				if seen[k] == nil {
					seen[k] = map[float64]bool{}
				}
				seen[k][v] = true
			}
		}
	}
	var out []string
	for k, vs := range seen {
		if len(vs) > 1 {
			var list []float64
			for v := range vs {
				list = append(list, v)
			}
			sort.Float64s(list)
			out = append(out, fmt.Sprintf("%s seed %d %s: %v", k.workload, k.seed, k.count, list))
		}
	}
	sort.Strings(out)
	return out
}

// hostDiffs lists, per workload, the distinct host fingerprints when its
// records carry more than one. (GOMAXPROCS differs between serial and sharded
// workloads by design, so fingerprints are compared within a workload.)
func hostDiffs(olds, news []record) []string {
	hosts := map[string]map[fingerprint]bool{}
	for _, set := range [][]record{olds, news} {
		for _, r := range set {
			if hosts[r.Workload] == nil {
				hosts[r.Workload] = map[fingerprint]bool{}
			}
			hosts[r.Workload][r.Host] = true
		}
	}
	var out []string
	for w, hs := range hosts {
		if len(hs) < 2 {
			continue
		}
		for h := range hs {
			out = append(out, fmt.Sprintf("%s: %+v", w, h))
		}
	}
	sort.Strings(out)
	return out
}
