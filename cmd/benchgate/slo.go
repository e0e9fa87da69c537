package main

import (
	"encoding/json"
	"fmt"
	"io"

	"fgcs/internal/obs"
)

// extractSLO pulls the SLO status list out of any of the shapes the tooling
// emits: a bare array of statuses, an `isharec stats -json` snapshot
// ({"slo": [...]}), or a fleetsim report ({"sim": {"fleet_obs": {"slo":
// [...]}}}).
func extractSLO(raw []byte) ([]obs.SLOStatus, error) {
	var bare []obs.SLOStatus
	if err := json.Unmarshal(raw, &bare); err == nil {
		return bare, nil
	}
	var stats struct {
		SLO []obs.SLOStatus `json:"slo"`
		Sim struct {
			FleetObs struct {
				SLO []obs.SLOStatus `json:"slo"`
			} `json:"fleet_obs"`
		} `json:"sim"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return nil, fmt.Errorf("parsing SLO input: %w", err)
	}
	if len(stats.SLO) > 0 {
		return stats.SLO, nil
	}
	return stats.Sim.FleetObs.SLO, nil
}

// runSLO gates declarative serving-path SLOs: every status in the input must
// report ok. The input is whatever the serving stack emits — `isharec stats
// -json` against a node started with -slo, or a fleetsim report.
func runSLO(in io.Reader, stderr io.Writer) error {
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	statuses, err := extractSLO(raw)
	if err != nil {
		return err
	}
	if len(statuses) == 0 {
		return fmt.Errorf("input carries no SLO statuses (start the server with -slo, or pass a fleetsim report)")
	}
	violations := 0
	for _, st := range statuses {
		if st.OK {
			fmt.Fprintf(stderr, "benchgate: slo %s ok (budget used %.1f%%)\n", st.Name, 100*st.BudgetConsumed)
			continue
		}
		violations++
		fmt.Fprintf(stderr, "benchgate: FAIL: slo %s violated: %s\n", st.Name, st.Reason)
	}
	if violations > 0 {
		return fmt.Errorf("%d of %d SLO(s) violated", violations, len(statuses))
	}
	fmt.Fprintf(stderr, "benchgate: OK: %d SLO(s) within budget\n", len(statuses))
	return nil
}
