package obs

import "slices"

// family is one row of derivedFamilies. perKey marks an accuracy family with
// one series per (machine, predictor) and computes its figure.
type family struct {
	name, help string
	kind       Kind
	labels     []string // label keys, in key order
	perKey     func(AccuracyStats) float64
}

// derivedFamilies is every family computed at scrape time rather than
// registered: the accuracy tracker's, on a node's page, and the fleet page's
// own. cmd/doccheck audits the rows by the
// registry's rules, except that the machine label is allowed here: the
// tracker's retention bounds it.
var derivedFamilies = []family{
	{name: "fgcs_accuracy_pending_predictions", kind: KindGauge, help: "Unresolved TR predictions awaiting their window outcome."},
	{name: "fgcs_accuracy_resolved_total", kind: KindCounter, help: "TR predictions matched against an observed outcome."},
	{name: "fgcs_accuracy_dropped_total", kind: KindCounter, help: "Predictions dropped unresolved, by the pending cap or an eviction."},
	{name: "fgcs_accuracy_resolved", kind: KindGauge, labels: []string{"machine", "predictor"}, help: "Resolved predictions per machine and predictor.", perKey: func(s AccuracyStats) float64 { return float64(s.Resolved) }},
	{name: "fgcs_accuracy_mean_tr", kind: KindGauge, labels: []string{"machine", "predictor"}, help: "Mean predicted temporal reliability.", perKey: func(s AccuracyStats) float64 { return s.MeanTR }},
	{name: "fgcs_accuracy_empirical_tr", kind: KindGauge, labels: []string{"machine", "predictor"}, help: "Observed survival rate of predicted windows.", perKey: func(s AccuracyStats) float64 { return s.Empirical }},
	{name: "fgcs_accuracy_brier", kind: KindGauge, labels: []string{"machine", "predictor"}, help: "Cumulative Brier score (lower is better).", perKey: func(s AccuracyStats) float64 { return s.Brier }},
	{name: "fgcs_accuracy_correct_rate", kind: KindGauge, labels: []string{"machine", "predictor"}, help: "Fraction of 0.5-thresholded predictions matching the outcome.", perKey: func(s AccuracyStats) float64 { return s.Accuracy }},
	{name: "fgcs_accuracy_rolling_brier", kind: KindGauge, labels: []string{"machine", "predictor"}, help: "Brier score over the rolling window.", perKey: func(s AccuracyStats) float64 { return s.RollingBrier }},
	{name: "fgcs_fleet_peers", kind: KindGauge, help: "Peers in this merged snapshot."},
	{name: "fgcs_fleet_peers_ok", kind: KindGauge, help: "Peers whose export was fetched for this snapshot."},
	{name: "fgcs_fleet_peers_stale", kind: KindGauge, help: "Peers merged from a cached export after a failed fetch."},
	{name: "fgcs_fleet_peers_unreachable", kind: KindGauge, help: "Peers with nothing to merge: no answer and no cached export."},
	{name: "fgcs_fleet_peer_status", kind: KindGauge, labels: []string{"peer", "status"}, help: "One series per peer, labelled with how its export was obtained; always 1."},
	{name: "fgcs_fleet_alerts", kind: KindGauge, help: "Merged alerts retained across peers."},
	{name: "fgcs_fleet_alerts_kind", kind: KindGauge, labels: []string{"kind"}, help: "Merged alerts retained across peers, by kind."},
}

// derivedFamily returns name's row, or nil when name is no derived family's.
func derivedFamily(name string) *family {
	for i := range derivedFamilies {
		if derivedFamilies[i].name == name {
			return &derivedFamilies[i]
		}
	}
	return nil
}

// series builds one series of the family: value is its gauge value, and
// values pair with its label keys.
func (f *family) series(value float64, values ...string) Series {
	s := Series{Name: f.name, Help: f.help, Kind: f.kind, Value: value}
	for i, v := range values {
		s.Labels = append(s.Labels, Label{Key: f.labels[i], Value: v})
	}
	return s
}

// accuracySeries appends the accuracy families to out: the two totals, then
// for each (machine, predictor) summary one series per per-key family.
func accuracySeries(out Snapshot, resolved, dropped uint64, stats []AccuracyStats) Snapshot {
	r, d := derivedFamily("fgcs_accuracy_resolved_total").series(0), derivedFamily("fgcs_accuracy_dropped_total").series(0)
	r.Count, d.Count = resolved, dropped
	var perKey []*family
	for i := range derivedFamilies {
		if f := &derivedFamilies[i]; f.perKey != nil {
			perKey = append(perKey, f)
		}
	}
	out = append(slices.Grow(out, 2+len(stats)*len(perKey)), r, d)
	for _, st := range stats {
		for _, f := range perKey {
			out = append(out, f.series(f.perKey(st), st.Machine, st.Predictor))
		}
	}
	return out
}

// NodeSeries is a node's whole /metrics page as one snapshot: the registry's
// series and, with a tracker, its accuracy families (either may be nil).
func NodeSeries(r *Registry, t *Tracker) Snapshot {
	s := r.Snapshot()
	if t != nil {
		// No registration uses a derived family's name: the lists share none.
		s = append(s, derivedFamily("fgcs_accuracy_pending_predictions").series(float64(t.Pending())))
		s = accuracySeries(s, t.Resolved(), t.DroppedPredictions(), t.All()).sorted()
	}
	return s
}
