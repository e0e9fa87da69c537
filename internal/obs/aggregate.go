package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"fgcs/internal/wire"
)

// Fleet aggregation: one peer's observability state as a mergeable value.
// A PeerObs carries the metrics-registry snapshot (counters sum, histograms
// merge bucket-wise), the accuracy tracker's raw sums (which merge by
// addition — derived figures like Brier are recomputed after the fold), and
// the peer's recent alerts. The binary codec is versioned and canonical:
// series and keys are encoded in sorted order, so equal states encode to
// equal bytes, which is what the merge-commutativity and fleet-determinism
// tests pin.

// Peer fetch statuses recorded in a merged fleet snapshot. A peer that
// cannot be reached is never silently dropped: its row is marked stale
// (cached data merged) or unreachable (nothing to merge).
const (
	PeerOK          = "ok"
	PeerStale       = "stale"
	PeerUnreachable = "unreachable"
)

// AccSums is the mergeable accuracy state for one (machine, predictor) key:
// the tracker's raw sums, without the derived ratios. Two AccSums for the
// same key merge by field-wise addition. The rolling-window ring is
// deliberately absent — rolling statistics do not merge across peers.
type AccSums struct {
	Machine   string  `json:"machine"`
	Predictor string  `json:"predictor"`
	Resolved  uint64  `json:"resolved"`
	Survived  uint64  `json:"survived"`
	Correct   uint64  `json:"correct"`
	SumTR     float64 `json:"sum_tr"`
	BrierSum  float64 `json:"brier_sum"`

	CalibCount    [CalibrationBuckets]uint64  `json:"calib_count"`
	CalibSurvived [CalibrationBuckets]uint64  `json:"calib_survived"`
	CalibSumTR    [CalibrationBuckets]float64 `json:"calib_sum_tr"`
}

// merge adds other's sums into a.
func (a *AccSums) merge(other AccSums) {
	a.Resolved += other.Resolved
	a.Survived += other.Survived
	a.Correct += other.Correct
	a.SumTR += other.SumTR
	a.BrierSum += other.BrierSum
	for b := 0; b < CalibrationBuckets; b++ {
		a.CalibCount[b] += other.CalibCount[b]
		a.CalibSurvived[b] += other.CalibSurvived[b]
		a.CalibSumTR[b] += other.CalibSumTR[b]
	}
}

// Stats derives the reportable summary from the sums. Rolling figures stay
// zero: they are per-node state and do not survive a merge.
func (a AccSums) Stats(calibration bool) AccuracyStats {
	out := AccuracyStats{
		Machine:   a.Machine,
		Predictor: a.Predictor,
		Resolved:  a.Resolved,
		Survived:  a.Survived,
	}
	if a.Resolved > 0 {
		n := float64(a.Resolved)
		out.MeanTR = a.SumTR / n
		out.Empirical = float64(a.Survived) / n
		out.Brier = a.BrierSum / n
		out.Accuracy = float64(a.Correct) / n
	}
	if calibration {
		for b := 0; b < CalibrationBuckets; b++ {
			cb := CalibrationBucket{
				Lo:    float64(b) / CalibrationBuckets,
				Hi:    float64(b+1) / CalibrationBuckets,
				Count: a.CalibCount[b],
			}
			if cb.Count > 0 {
				cb.MeanTR = a.CalibSumTR[b] / float64(cb.Count)
				cb.Empirical = float64(a.CalibSurvived[b]) / float64(cb.Count)
			}
			out.Calibration = append(out.Calibration, cb)
		}
	}
	return out
}

// ExportSums returns the tracker's totals plus every (machine, predictor)
// key's raw sums in sorted key order — the mergeable form of the accuracy
// state, as shipped in a PeerObs.
func (t *Tracker) ExportSums() (resolved, dropped uint64, sums []AccSums) {
	if t == nil {
		return 0, 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sums = make([]AccSums, 0, len(t.keys))
	for _, key := range t.keys {
		sums = append(sums, t.stats[key].sums(key))
	}
	return t.resolved, t.dropped, sums
}

// PeerObs is one peer's exported observability state: mergeable metrics,
// mergeable accuracy sums, and the recent alert ring.
type PeerObs struct {
	// Peer is the exporting peer's identity.
	Peer string
	// Metrics is the registry snapshot (counters, gauges, histograms).
	Metrics Snapshot
	// Resolved and Dropped are the tracker totals; Accuracy the per-key
	// sums in sorted order.
	Resolved uint64
	Dropped  uint64
	Accuracy []AccSums
	// Alerts is the peer's retained alert ring, oldest first.
	Alerts []Alert
}

// ExportPeerObs assembles a peer's export from its registry, tracker and
// alert ring (each may be nil).
func ExportPeerObs(peer string, r *Registry, t *Tracker, alerts *AlertRing) *PeerObs {
	p := &PeerObs{Peer: peer}
	if r != nil {
		p.Metrics = r.Snapshot()
	} else {
		p.Metrics = emptySnapshot()
	}
	p.Resolved, p.Dropped, p.Accuracy = t.ExportSums()
	p.Alerts = alerts.Alerts(0)
	return p
}

func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// ------------------------------------------------------------ binary codec

var obsMagic = [4]byte{'F', 'G', 'O', 'S'}

// obsVersion is the peer-obs snapshot format version.
const obsVersion = 1

// maxObsBounds caps the histogram bucket count a decoded snapshot may claim.
const maxObsBounds = 4096

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EncodeBinary serializes the export in the versioned FGOS format. The
// encoding is canonical: series, keys and alerts appear in sorted order, so
// equal states produce identical bytes.
func (p *PeerObs) EncodeBinary() []byte {
	buf := wire.AppendHeader(nil, obsMagic, obsVersion)
	buf = wire.AppendString(buf, p.Peer)

	buf = wire.AppendUvarint(buf, uint64(len(p.Metrics.Counters)))
	for _, k := range sortedKeys(p.Metrics.Counters) {
		buf = wire.AppendString(buf, k)
		buf = wire.AppendUvarint(buf, p.Metrics.Counters[k])
	}
	buf = wire.AppendUvarint(buf, uint64(len(p.Metrics.Gauges)))
	for _, k := range sortedKeys(p.Metrics.Gauges) {
		buf = wire.AppendString(buf, k)
		buf = wire.AppendFloat64(buf, p.Metrics.Gauges[k])
	}
	buf = wire.AppendUvarint(buf, uint64(len(p.Metrics.Histograms)))
	for _, k := range sortedKeys(p.Metrics.Histograms) {
		h := p.Metrics.Histograms[k]
		buf = wire.AppendString(buf, k)
		buf = wire.AppendUvarint(buf, uint64(len(h.Bounds)))
		for _, b := range h.Bounds {
			buf = wire.AppendFloat64(buf, b)
		}
		for _, c := range h.Counts {
			buf = wire.AppendUvarint(buf, c)
		}
		buf = wire.AppendFloat64(buf, h.Sum)
		buf = wire.AppendUvarint(buf, h.Count)
	}

	buf = wire.AppendUvarint(buf, p.Resolved)
	buf = wire.AppendUvarint(buf, p.Dropped)
	buf = wire.AppendUvarint(buf, uint64(len(p.Accuracy)))
	for i := range p.Accuracy {
		buf = appendAccSums(buf, &p.Accuracy[i])
	}

	buf = wire.AppendUvarint(buf, uint64(len(p.Alerts)))
	for _, a := range p.Alerts {
		buf = wire.AppendUvarint(buf, a.Seq)
		buf = wire.AppendString(buf, a.Kind)
		buf = wire.AppendString(buf, a.Machine)
		buf = wire.AppendString(buf, a.Predictor)
		buf = wire.AppendFloat64(buf, a.Value)
		buf = wire.AppendFloat64(buf, a.Threshold)
		buf = wire.AppendString(buf, a.Message)
		buf = wire.AppendUvarint(buf, uint64(a.Time.UnixNano()))
	}
	return buf
}

// DecodeObsSnapshot parses a PeerObs encoded by EncodeBinary. The decoder
// trusts nothing: wire.Reader bounds every claimed count by the bytes that
// remain and rejects trailing bytes; on top of that series may not repeat
// and histogram layouts are size-capped. Each Count argument is the size of
// that element's smallest encoding (empty strings, one-byte uvarints).
func DecodeObsSnapshot(data []byte) (*PeerObs, error) {
	r := wire.NewReader(data, "obs: obs snapshot")
	r.Header(obsMagic, obsVersion)
	out := &PeerObs{Metrics: emptySnapshot(), Peer: r.String()}

	for n := r.Count(2, "counters"); n > 0 && r.Err() == nil; n-- {
		k, v := r.String(), r.Uvarint()
		if _, dup := out.Metrics.Counters[k]; dup {
			r.Fail("duplicate counter series %q", k)
		}
		out.Metrics.Counters[k] = v
	}
	for n := r.Count(9, "gauges"); n > 0 && r.Err() == nil; n-- {
		k, v := r.String(), r.Float64()
		if _, dup := out.Metrics.Gauges[k]; dup {
			r.Fail("duplicate gauge series %q", k)
		}
		out.Metrics.Gauges[k] = v
	}
	for n := r.Count(12, "histograms"); n > 0 && r.Err() == nil; n-- {
		k := r.String()
		nb := r.Count(8, "histogram bounds")
		if nb > maxObsBounds {
			r.Fail("histogram claims %d bounds", nb)
			break
		}
		h := HistogramSnapshot{Bounds: make([]float64, nb), Counts: make([]uint64, nb+1)}
		for j := range h.Bounds {
			h.Bounds[j] = r.Float64()
			if j > 0 && h.Bounds[j] <= h.Bounds[j-1] {
				r.Fail("histogram bounds not increasing")
			}
		}
		for j := range h.Counts {
			h.Counts[j] = r.Uvarint()
		}
		h.Sum, h.Count = r.Float64(), r.Uvarint()
		if _, dup := out.Metrics.Histograms[k]; dup {
			r.Fail("duplicate histogram series %q", k)
		}
		out.Metrics.Histograms[k] = h
	}

	out.Resolved, out.Dropped = r.Uvarint(), r.Uvarint()
	n := r.Count(accSumsMinBytes, "accuracy keys")
	seen := make(map[trackerKey]bool, n)
	out.Accuracy = make([]AccSums, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		a := readAccSums(&r)
		key := trackerKey{Machine: a.Machine, Predictor: a.Predictor}
		if seen[key] {
			r.Fail("duplicate accuracy key")
		}
		seen[key] = true
		out.Accuracy = append(out.Accuracy, a)
	}

	n = r.Count(22, "alerts")
	if n > maxAlertCap {
		r.Fail("claims %d alerts, cap %d", n, maxAlertCap)
	}
	out.Alerts = make([]Alert, 0, min(n, maxAlertCap))
	for ; n > 0 && r.Err() == nil; n-- {
		a := Alert{Seq: r.Uvarint(), Kind: r.String(), Machine: r.String(), Predictor: r.String(),
			Value: r.Float64(), Threshold: r.Float64(), Message: r.String()}
		a.Time = time.Unix(0, int64(r.Uvarint())).UTC()
		out.Alerts = append(out.Alerts, a)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// ------------------------------------------------------------ fleet merge

// PeerStatus is one peer's row in a merged fleet snapshot: how its data was
// obtained, or why it is missing.
type PeerStatus struct {
	Peer string `json:"peer"`
	// Status is PeerOK, PeerStale (cached export merged; see AgeSeconds) or
	// PeerUnreachable (nothing merged).
	Status string `json:"status"`
	// AgeSeconds is how old the merged data is for a stale peer.
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	// Err is the fetch error for stale and unreachable peers.
	Err string `json:"err,omitempty"`
}

// FleetSnapshot is the merged fleet-level view: counters summed, histograms
// merged bucket-wise, accuracy sums rolled up per key, every peer's alerts
// stamped with its identity, and a status row per peer.
type FleetSnapshot struct {
	Peers    []PeerStatus
	Metrics  Snapshot
	Resolved uint64
	Dropped  uint64
	Alerts   []Alert

	acc map[trackerKey]*AccSums
}

// NewFleetSnapshot builds an empty merge target.
func NewFleetSnapshot() *FleetSnapshot {
	return &FleetSnapshot{Metrics: emptySnapshot(), acc: make(map[trackerKey]*AccSums)}
}

// Add merges one peer's export under the given status row. Alerts are
// stamped with the peer identity. Histogram layout conflicts are recorded
// on the status row rather than aborting the merge.
func (f *FleetSnapshot) Add(p *PeerObs, status PeerStatus) {
	if status.Peer == "" {
		status.Peer = p.Peer
	}
	if err := f.Metrics.Merge(p.Metrics); err != nil && status.Err == "" {
		status.Err = err.Error()
	}
	f.Resolved += p.Resolved
	f.Dropped += p.Dropped
	for _, a := range p.Accuracy {
		key := trackerKey{Machine: a.Machine, Predictor: a.Predictor}
		if cur, ok := f.acc[key]; ok {
			cur.merge(a)
		} else {
			cp := a
			f.acc[key] = &cp
		}
	}
	for _, a := range p.Alerts {
		a.Peer = status.Peer
		f.Alerts = append(f.Alerts, a)
	}
	f.Peers = append(f.Peers, status)
}

// AddUnreachable records a peer that could not be fetched and has no cached
// data — marked, never silently dropped.
func (f *FleetSnapshot) AddUnreachable(peer, errMsg string) {
	f.Peers = append(f.Peers, PeerStatus{Peer: peer, Status: PeerUnreachable, Err: errMsg})
}

// AccuracySums returns the merged per-key sums in sorted key order.
func (f *FleetSnapshot) AccuracySums() []AccSums {
	keys := make([]trackerKey, 0, len(f.acc))
	for k := range f.acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	out := make([]AccSums, 0, len(keys))
	for _, k := range keys {
		out = append(out, *f.acc[k])
	}
	return out
}

// FleetView is the JSON operator summary of a merged fleet snapshot, served
// over query-obs and rendered by `isharec stats -fleet`.
type FleetView struct {
	Peers []PeerStatus `json:"peers"`
	// Counters is every merged counter series (fixed-cardinality series
	// only; nothing here is per-machine).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Resolved and Dropped are the fleet accuracy totals; Accuracy the
	// "_all" per-predictor rollup.
	Resolved uint64          `json:"resolved"`
	Dropped  uint64          `json:"dropped"`
	Accuracy []AccuracyStats `json:"accuracy,omitempty"`
	// Alerts are the merged alerts (newest kept when truncated) and
	// AlertsTotal the pre-truncation count.
	Alerts      []Alert `json:"alerts,omitempty"`
	AlertsTotal int     `json:"alerts_total"`
}

// View assembles the operator summary. maxAlerts > 0 keeps only the newest
// alerts (after the deterministic peer/seq sort).
func (f *FleetSnapshot) View(maxAlerts int) FleetView {
	v := FleetView{
		Peers:    append([]PeerStatus(nil), f.Peers...),
		Counters: make(map[string]uint64, len(f.Metrics.Counters)),
		Resolved: f.Resolved,
		Dropped:  f.Dropped,
	}
	sort.Slice(v.Peers, func(i, j int) bool { return v.Peers[i].Peer < v.Peers[j].Peer })
	for k, c := range f.Metrics.Counters {
		v.Counters[k] = c
	}
	for _, a := range f.AccuracySums() {
		if a.Machine == "_all" {
			v.Accuracy = append(v.Accuracy, a.Stats(false))
		}
	}
	v.Alerts = sortedAlerts(f.Alerts)
	v.AlertsTotal = len(v.Alerts)
	if maxAlerts > 0 && len(v.Alerts) > maxAlerts {
		v.Alerts = v.Alerts[len(v.Alerts)-maxAlerts:]
	}
	return v
}

func sortedAlerts(alerts []Alert) []Alert {
	out := append([]Alert(nil), alerts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteText renders the merged snapshot in the Prometheus text exposition
// format. Everything is emitted in sorted order — peers, series, alert
// kinds — so the rendering is a deterministic function of the merged state
// regardless of merge order (the commutativity property the tests pin).
// Merged registry series carry no HELP/TYPE header (the merge sees series
// ids, not registration metadata); the fleet-meta and accuracy series do.
func (f *FleetSnapshot) WriteText(w io.Writer) error {
	peers := append([]PeerStatus(nil), f.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].Peer < peers[j].Peer })
	counts := map[string]int{}
	for _, p := range peers {
		counts[p.Status]++
	}
	if _, err := fmt.Fprintf(w,
		"# HELP fgcs_fleet_peers Peers contributing to this merged snapshot, by fetch status.\n"+
			"# TYPE fgcs_fleet_peers gauge\n"+
			"fgcs_fleet_peers %d\n"+
			"fgcs_fleet_peers_ok %d\nfgcs_fleet_peers_stale %d\nfgcs_fleet_peers_unreachable %d\n",
		len(peers), counts[PeerOK], counts[PeerStale], counts[PeerUnreachable]); err != nil {
		return err
	}
	for _, p := range peers {
		if _, err := fmt.Fprintf(w, "fgcs_fleet_peer_status%s 1\n",
			labelString([]Label{{"peer", p.Peer}, {"status", p.Status}})); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(f.Metrics.Counters) {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, f.Metrics.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(f.Metrics.Gauges) {
		if _, err := fmt.Fprintf(w, "%s %s\n", k, formatFloat(f.Metrics.Gauges[k])); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(f.Metrics.Histograms) {
		if err := writeHistText(w, k, f.Metrics.Histograms[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# HELP fgcs_accuracy_resolved_total TR predictions matched against an observed outcome (fleet total).\n"+
			"# TYPE fgcs_accuracy_resolved_total counter\nfgcs_accuracy_resolved_total %d\n"+
			"# HELP fgcs_accuracy_dropped_total Predictions evicted unresolved (fleet total).\n"+
			"# TYPE fgcs_accuracy_dropped_total counter\nfgcs_accuracy_dropped_total %d\n",
		f.Resolved, f.Dropped); err != nil {
		return err
	}
	sums := f.AccuracySums()
	if len(sums) > 0 {
		series := []struct {
			name, help string
			value      func(AccuracyStats) string
		}{
			{"fgcs_accuracy_resolved", "Resolved predictions per machine and predictor (fleet merge).",
				func(s AccuracyStats) string { return strconv.FormatUint(s.Resolved, 10) }},
			{"fgcs_accuracy_mean_tr", "Mean predicted temporal reliability (fleet merge).",
				func(s AccuracyStats) string { return formatFloat(s.MeanTR) }},
			{"fgcs_accuracy_empirical_tr", "Observed survival rate of predicted windows (fleet merge).",
				func(s AccuracyStats) string { return formatFloat(s.Empirical) }},
			{"fgcs_accuracy_brier", "Cumulative Brier score (fleet merge; lower is better).",
				func(s AccuracyStats) string { return formatFloat(s.Brier) }},
		}
		for _, sr := range series {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", sr.name, sr.help, sr.name); err != nil {
				return err
			}
			for _, a := range sums {
				s := a.Stats(false)
				labels := labelString([]Label{{"machine", s.Machine}, {"predictor", s.Predictor}})
				if _, err := fmt.Fprintf(w, "%s%s %s\n", sr.name, labels, sr.value(s)); err != nil {
					return err
				}
			}
		}
	}
	byKind := map[string]int{}
	for _, a := range f.Alerts {
		byKind[a.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if _, err := fmt.Fprintf(w,
		"# HELP fgcs_fleet_alerts Merged alerts retained across peers, by kind.\n"+
			"# TYPE fgcs_fleet_alerts gauge\nfgcs_fleet_alerts %d\n", len(f.Alerts)); err != nil {
		return err
	}
	for _, k := range kinds {
		if _, err := fmt.Fprintf(w, "fgcs_fleet_alerts_kind%s %d\n",
			labelString([]Label{{"kind", k}}), byKind[k]); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeHistText renders one histogram series with the cumulative _bucket /
// _sum / _count invariants of the exposition format.
func writeHistText(w io.Writer, id string, h HistogramSnapshot) error {
	// The merged series id already carries the label set ("name{...}"); to
	// splice in the le label the id is split back into name and labels.
	name, labels := splitSeriesID(id)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
		}
		lab := spliceLabel(labels, "le", le)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lab, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		name, labels, formatFloat(h.Sum), name, labels, h.Count)
	return err
}

// splitSeriesID separates "name{labels}" into name and "{labels}" (labels
// may be empty).
func splitSeriesID(id string) (name, labels string) {
	for i := 0; i < len(id); i++ {
		if id[i] == '{' {
			return id[:i], id[i:]
		}
	}
	return id, ""
}

// spliceLabel inserts key="value" into a rendered label block, keeping the
// exposition's sorted-key order.
func spliceLabel(labels, key, value string) string {
	pair := key + "=" + strconv.Quote(value)
	if labels == "" {
		return "{" + pair + "}"
	}
	inner := labels[1 : len(labels)-1]
	// Insert before the first existing key that sorts after ours; label
	// values are quoted, so scanning for top-level commas is unambiguous
	// only because keys precede every quote. A simple split on `,` between
	// pairs is safe here: series ids are produced by labelString, which
	// quotes values (commas inside values stay inside quotes), so reuse a
	// quote-aware scan.
	parts := splitLabelPairs(inner)
	out := make([]string, 0, len(parts)+1)
	inserted := false
	for _, p := range parts {
		if !inserted && p > pair {
			out = append(out, pair)
			inserted = true
		}
		out = append(out, p)
	}
	if !inserted {
		out = append(out, pair)
	}
	s := "{"
	for i, p := range out {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s + "}"
}

// splitLabelPairs splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	start := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
