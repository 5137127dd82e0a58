package main

import (
	"testing"

	"vertigo/internal/metrics"
)

func TestCheckSummary(t *testing.T) {
	good := metrics.Summary{
		FlowsStarted: 10, FlowsCompleted: 9, QueriesStarted: 2, QueriesCompleted: 2,
		PacketsSent: 1000, PacketsRecv: 950, Drops: 10,
	}
	if err := checkSummary(&good, 60); err != nil {
		t.Fatalf("consistent summary rejected: %v", err)
	}
	for name, doctor := range map[string]func(*metrics.Summary){
		"no flows":              func(s *metrics.Summary) { s.FlowsStarted, s.FlowsCompleted = 0, 0 },
		"flows over-complete":   func(s *metrics.Summary) { s.FlowsCompleted = 11 },
		"queries over-complete": func(s *metrics.Summary) { s.QueriesCompleted = 3 },
		"ledger overflows":      func(s *metrics.Summary) { s.PacketsRecv = 995 },
		"packets vanish":        func(s *metrics.Summary) { s.PacketsRecv = 880 },
	} {
		s := good
		doctor(&s)
		if err := checkSummary(&s, 60); err == nil {
			t.Errorf("%s: doctored summary passed", name)
		}
	}
}

func TestSummaryDigestSeesEveryField(t *testing.T) {
	a := metrics.Summary{FlowsStarted: 1, PacketsSent: 5}
	b := a
	b.Retransmits = 1
	da, err := summaryDigest(&a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := summaryDigest(&b)
	if err != nil {
		t.Fatal(err)
	}
	if da == db {
		t.Fatal("summaries that differ share a digest")
	}
}
