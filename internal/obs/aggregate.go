package obs

import (
	"regexp"
	"sort"
	"time"

	"fgcs/internal/wire"
)

// Fleet aggregation: one peer's observability state as a mergeable value.
// A PeerObs carries the metrics-registry snapshot (counters sum, histograms
// merge bucket-wise) and the peer's recent alerts. Accuracy is not part of
// it: a TR is scored on the host that made it, and that node serves its
// accuracy itself (query-stats, its /metrics page). The binary codec is
// versioned and canonical: a snapshot's series are in sorted order, so equal
// states encode to equal bytes, which is what the merge-commutativity and
// fleet-determinism tests pin.

// Peer fetch statuses recorded in a merged fleet snapshot. A peer that
// cannot be reached is never silently dropped: its row is marked stale
// (cached data merged) or unreachable (nothing to merge).
const (
	PeerOK          = "ok"
	PeerStale       = "stale"
	PeerUnreachable = "unreachable"
)

// PeerObs is one peer's exported observability state: mergeable metrics and
// the recent alert ring.
type PeerObs struct {
	// Peer is the exporting peer's identity.
	Peer string
	// Metrics is the registry snapshot.
	Metrics Snapshot
	// Alerts is the peer's retained alert ring, oldest first.
	Alerts []Alert
}

// ExportPeerObs assembles a peer's export from its registry and alert ring
// (either may be nil).
func ExportPeerObs(peer string, r *Registry, alerts *AlertRing) *PeerObs {
	return &PeerObs{Peer: peer, Metrics: r.Snapshot(), Alerts: alerts.Alerts(0)}
}

// ------------------------------------------------------------ binary codec

var obsMagic = [4]byte{'F', 'G', 'O', 'S'}

// obsVersion is the peer-obs snapshot format version: 3 carries the series
// and the alerts; 2 also carried the tracker totals and per-key accuracy
// sums, and 1 a rendered id string where 2 has name, label pairs and kind.
// Exports are exchanged live, never stored, and a peer that fails to decode
// shows as stale or unreachable, so no reader for an older version is kept.
const obsVersion = 3

// maxObsBounds caps the histogram bucket count a decoded snapshot may claim.
const maxObsBounds = 4096

// A series name and a label key of the text exposition format.
var (
	seriesNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelKeyRE   = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// EncodeBinary serializes the export in the versioned FGOS format. The
// encoding is canonical: series appear in sorted order and alerts in ring
// order, so equal states produce identical bytes.
func (p *PeerObs) EncodeBinary() []byte {
	buf := wire.AppendHeader(nil, obsMagic, obsVersion)
	buf = wire.AppendString(buf, p.Peer)

	buf = wire.AppendUvarint(buf, uint64(len(p.Metrics)))
	for i := range p.Metrics {
		s := &p.Metrics[i]
		buf = wire.AppendString(buf, s.Name)
		buf = wire.AppendUvarint(buf, uint64(len(s.Labels)))
		for _, l := range s.Labels {
			buf = wire.AppendString(wire.AppendString(buf, l.Key), l.Value)
		}
		buf = wire.AppendUvarint(buf, uint64(s.Kind))
		switch s.Kind {
		case KindCounter:
			buf = wire.AppendUvarint(buf, s.Count)
		case KindGauge:
			buf = wire.AppendFloat64(buf, s.Value)
		case KindHistogram:
			buf = wire.AppendUvarint(buf, uint64(len(s.Hist.Bounds)))
			for _, b := range s.Hist.Bounds {
				buf = wire.AppendFloat64(buf, b)
			}
			for _, c := range s.Hist.Counts {
				buf = wire.AppendUvarint(buf, c)
			}
			buf = wire.AppendFloat64(buf, s.Hist.Sum)
			buf = wire.AppendUvarint(buf, s.Hist.Count)
		}
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

// DecodeObsSnapshot parses a PeerObs encoded by EncodeBinary. It is the one
// place a peer's bytes become series: what it accepts, merge and WriteText
// take on trust. wire.Reader bounds every claimed count by the bytes that
// remain and rejects trailing bytes (each Count argument is that element's
// smallest encoding). On top of that a series needs a name and label keys of
// the exposition format, the keys strictly increasing and none of them le, a
// known kind, and a place after the series before it in a family of one
// kind, not a derived one; histogram layouts are increasing and size-capped.
func DecodeObsSnapshot(data []byte) (*PeerObs, error) {
	r := wire.NewReader(data, "obs: obs snapshot")
	r.Header(obsMagic, obsVersion)
	out := &PeerObs{Peer: r.String()}

	for n := r.Count(4, "series"); n > 0 && r.Err() == nil; n-- {
		s := Series{Name: r.String()}
		if !seriesNameRE.MatchString(s.Name) || derivedFamily(s.Name) != nil {
			r.Fail("series name %q is malformed or reserved", s.Name)
		}
		s.Labels = make([]Label, r.Count(2, "labels"))
		for j := range s.Labels {
			s.Labels[j] = Label{Key: r.String(), Value: r.String()}
			if key := s.Labels[j].Key; !labelKeyRE.MatchString(key) || key == "le" || j > 0 && key <= s.Labels[j-1].Key {
				r.Fail("series %s: label key %q is malformed, reserved, repeated or out of order", s.Name, key)
			}
		}
		switch kind := r.Uvarint(); kind {
		case uint64(KindCounter):
			s.Count = r.Uvarint()
		case uint64(KindGauge):
			s.Kind, s.Value = KindGauge, r.Float64()
		case uint64(KindHistogram):
			s.Kind = KindHistogram
			nb := r.Count(8, "histogram bounds")
			if nb > maxObsBounds {
				r.Fail("histogram claims %d bounds", nb)
				break
			}
			s.Hist = HistogramSnapshot{Bounds: make([]float64, nb), Counts: make([]uint64, nb+1)}
			for j := range s.Hist.Bounds {
				s.Hist.Bounds[j] = r.Float64()
				if j > 0 && s.Hist.Bounds[j] <= s.Hist.Bounds[j-1] {
					r.Fail("histogram bounds not increasing")
				}
			}
			for j := range s.Hist.Counts {
				s.Hist.Counts[j] = r.Uvarint()
			}
			s.Hist.Sum, s.Hist.Count = r.Float64(), r.Uvarint()
		default:
			r.Fail("series %s: unknown kind %d", s.Name, kind)
		}
		if m := len(out.Metrics); m > 0 {
			prev := &out.Metrics[m-1]
			if prev.Name == s.Name && prev.Kind != s.Kind || compareKey(prev.Name, prev.Labels, s.Name, s.Labels) >= 0 {
				r.Fail("series %q out of order, repeated, or of another kind than its family", s.ID())
			}
		}
		out.Metrics = append(out.Metrics, s)
	}

	n := r.Count(22, "alerts")
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
// merged bucket-wise, every peer's alerts stamped with its identity, and a
// status row per peer. The zero value is an empty merge target.
type FleetSnapshot struct {
	Peers   []PeerStatus
	Metrics Snapshot
	Alerts  []Alert
}

// Add merges one peer's export under the given status row. Alerts are
// stamped with the peer identity. A series whose kind or histogram layout
// conflicts with what is already merged is left out and the conflict recorded
// on the status row; the rest of the export still merges.
func (f *FleetSnapshot) Add(p *PeerObs, status PeerStatus) {
	if status.Peer == "" {
		status.Peer = p.Peer
	}
	if err := f.Metrics.merge(p.Metrics); err != nil && status.Err == "" {
		status.Err = err.Error()
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

// FleetView is the JSON operator summary of a merged fleet snapshot, served
// over query-obs and rendered by `isharec stats -fleet`.
type FleetView struct {
	Peers []PeerStatus `json:"peers"`
	// Counters is every merged counter series (fixed-cardinality series
	// only; nothing here is per-machine).
	Counters map[string]uint64 `json:"counters,omitempty"`
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
		Counters: make(map[string]uint64),
	}
	sort.Slice(v.Peers, func(i, j int) bool { return v.Peers[i].Peer < v.Peers[j].Peer })
	for i := range f.Metrics {
		if sr := &f.Metrics[i]; sr.Kind == KindCounter {
			v.Counters[sr.ID()] = sr.Count
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

// series is the fleet /metrics page as one snapshot: the fleet's own
// families (peer and alert counts, a status series per peer) and the peers'
// merged registry series — a function of the merged state alone, whatever
// order the peers were added in.
func (f *FleetSnapshot) series() Snapshot {
	counts := map[string]float64{}
	out := Snapshot{derivedFamily("fgcs_fleet_peers").series(float64(len(f.Peers))), derivedFamily("fgcs_fleet_alerts").series(float64(len(f.Alerts)))}
	for _, p := range f.Peers {
		counts[p.Status]++
		out = append(out, derivedFamily("fgcs_fleet_peer_status").series(1, p.Peer, p.Status))
	}
	for _, status := range []string{PeerOK, PeerStale, PeerUnreachable} {
		out = append(out, derivedFamily("fgcs_fleet_peers_"+status).series(counts[status]))
	}
	byKind := map[string]float64{}
	for _, a := range f.Alerts {
		byKind[a.Kind]++
	}
	for kind, n := range byKind {
		out = append(out, derivedFamily("fgcs_fleet_alerts_kind").series(n, kind))
	}
	// DecodeObsSnapshot keeps the derived names out of every export, so the
	// two lists share no family.
	return append(out, f.Metrics...).sorted()
}
