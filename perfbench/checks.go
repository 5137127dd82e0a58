package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"vertigo/internal/metrics"
)

// checkSummary applies the per-run output checks: flows started, no class
// completes more than it started, and the packet ledger balances. Every data
// packet sent is delivered, dropped, or still in flight at the horizon; the
// in-flight remainder is bounded by the fabric's capacity, at most a tenth of
// the packets sent, and by live, the packets the run's packet pool still had
// handed out when it ended.
func checkSummary(s *metrics.Summary, live int64) error {
	if s.FlowsStarted <= 0 {
		return fmt.Errorf("no flows started")
	}
	if s.FlowsCompleted > s.FlowsStarted {
		return fmt.Errorf("flows completed %d > started %d", s.FlowsCompleted, s.FlowsStarted)
	}
	if s.QueriesCompleted > s.QueriesStarted {
		return fmt.Errorf("queries completed %d > started %d", s.QueriesCompleted, s.QueriesStarted)
	}
	if s.PacketsRecv+s.Drops > s.PacketsSent {
		return fmt.Errorf("ledger overflows: recv %d + drops %d > sent %d", s.PacketsRecv, s.Drops, s.PacketsSent)
	}
	gap := s.PacketsSent - s.PacketsRecv - s.Drops
	if gap*10 > s.PacketsSent {
		return fmt.Errorf("%d of %d sent packets unaccounted for (> 10%%)", gap, s.PacketsSent)
	}
	if gap > live {
		return fmt.Errorf("%d sent packets unaccounted for, but only %d still live", gap, live)
	}
	return nil
}

// summaryDigest hashes the summary's encoding, so repeated executions of one
// config can be compared without keeping their (possibly large) encodings.
func summaryDigest(s *metrics.Summary) ([sha256.Size]byte, error) {
	var b bytes.Buffer
	if err := s.Encode(&b); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("encoding summary: %w", err)
	}
	return sha256.Sum256(b.Bytes()), nil
}
