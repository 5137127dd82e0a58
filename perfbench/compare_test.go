package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagsModelAndHostDiffs(t *testing.T) {
	host := fingerprint{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 1, GoVersion: "go"}
	rec := func(w string, seed int64, pkts float64, h fingerprint) record {
		return record{
			Workload: w, Seed: seed, Host: h,
			Model:   map[string]float64{"model.pkts_sent": pkts},
			Metrics: map[string]metricValue{"pkts_per_s": {Value: 100, Unit: "pkts/s"}},
		}
	}
	sharded := host
	sharded.GOMAXPROCS = 2
	olds := []record{rec("ls_vertigo_incast", 1, 10, host), rec("ft8_sharded2", 1, 30, sharded)}
	news := []record{rec("ls_vertigo_incast", 1, 11, host), rec("ft8_sharded2", 1, 30, sharded)}

	got := modelDiffs(olds, news)
	if len(got) != 1 || !strings.Contains(got[0], "ls_vertigo_incast seed 1 model.pkts_sent") {
		t.Errorf("modelDiffs = %q, want one diff for ls_vertigo_incast", got)
	}
	if got := hostDiffs(olds, news); len(got) != 0 {
		t.Errorf("hostDiffs flagged workloads run with their own GOMAXPROCS: %q", got)
	}
	other := host
	other.CPUModel = "other cpu"
	news[0].Host = other
	if got := hostDiffs(olds, news); len(got) != 2 {
		t.Errorf("hostDiffs = %q, want both fingerprints of ls_vertigo_incast", got)
	}

	// End to end: records written as results.jsonl on one side and as
	// standard output on the other.
	dir := t.TempDir()
	var a, b bytes.Buffer
	for _, r := range olds {
		if err := json.NewEncoder(&a).Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range news {
		if err := json.NewEncoder(&b).Encode(struct {
			Record record `json:"record"`
		}{r}); err != nil {
			t.Fatal(err)
		}
		b.WriteString(`{"correct":true,"attempted":2,"failed":0,"metrics":{}}` + "\n")
	}
	pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.txt")
	if err := os.WriteFile(pa, a.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, pa, pb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ls_vertigo_incast", "pkts_per_s", "+0.00%", "MODEL DIFF", "HOST DIFF"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
