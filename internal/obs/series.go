package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Label is one metric dimension, fixed at registration time.
type Label struct {
	Key   string
	Value string
}

// Kind is a metric family's type. It decides how two snapshots of a series
// merge: counters add, histograms add bucket-wise, a gauge keeps the
// receiver's value.
type Kind uint8

// The three kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// kindNames is each kind's word on a TYPE line.
var kindNames = [...]string{KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram"}

// Series is one typed series of a Snapshot. Name and Labels (sorted by key)
// identify it; Kind says which of Count, Value and Hist carries its value.
// Help is documentation, not data: the peer codec leaves it behind, and the
// aggregator's own series, merged first, supply it.
type Series struct {
	Name   string
	Labels []Label
	Kind   Kind
	Help   string

	Count uint64            // KindCounter
	Value float64           // KindGauge
	Hist  HistogramSnapshot // KindHistogram
}

// ID renders the series identity as on a sample line, name{k="v",...} — the
// key of FleetView.Counters and of the fleet simulator's request maps.
func (s *Series) ID() string { return string(appendID(nil, s.Name, s.Labels)) }

// labelEscaper escapes a label value as the text format defines.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendID appends name{labels}, label values escaped.
func appendID(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	sep := byte('{')
	for _, l := range labels {
		b = append(append(append(b, sep), l.Key...), '=', '"')
		b = append(append(b, labelEscaper.Replace(l.Value)...), '"')
		sep = ','
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return b
}

// compareKey orders series identities: by name, then label by label.
func compareKey(an string, al []Label, bn string, bl []Label) int {
	if c := strings.Compare(an, bn); c != 0 {
		return c
	}
	return slices.CompareFunc(al, bl, func(a, b Label) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
}

// Snapshot is a point-in-time list of typed series in compareKey order, so a
// family's series are adjacent, a lookup is a binary search, two snapshots
// merge in one pass and equal states render and encode to equal bytes.
type Snapshot []Series

// sorted puts a freshly built series list into snapshot order.
func (s Snapshot) sorted() Snapshot {
	slices.SortFunc(s, func(a, b Series) int { return compareKey(a.Name, a.Labels, b.Name, b.Labels) })
	return s
}

// Find returns the series (name, labels), labels given in key order, or the
// zero Series when the snapshot has none.
func (s Snapshot) Find(name string, labels ...Label) Series {
	i, ok := slices.BinarySearchFunc(s, name, func(e Series, name string) int {
		return compareKey(e.Name, e.Labels, name, labels)
	})
	if !ok {
		return Series{}
	}
	return s[i]
}

// merge folds other into s, the union of both lists. A kind belongs to the
// family: a series of other's whose kind is not the one its name has in s is
// left out, as is a histogram whose bounds differ from s's. Everything else
// still merges, and the first such conflict is returned.
func (s *Snapshot) merge(other Snapshot) error {
	mine := *s
	out := make(Snapshot, 0, len(mine)+len(other))
	var first error
	i := 0
	for j := range other {
		o := &other[j]
		for i < len(mine) && compareKey(mine[i].Name, mine[i].Labels, o.Name, o.Labels) < 0 {
			out = append(out, mine[i])
			i++
		}
		// s's series of o's family are adjacent: the one just merged or the
		// one up next tells the family's kind here.
		near := o
		if n := len(out); n > 0 && out[n-1].Name == o.Name {
			near = &out[n-1]
		} else if i < len(mine) && mine[i].Name == o.Name {
			near = &mine[i]
		}
		var err error
		switch {
		case near.Kind != o.Kind:
			err = fmt.Errorf("obs: %s is a %s here and a %s there", o.Name, kindNames[near.Kind], kindNames[o.Kind])
		case i < len(mine) && compareKey(mine[i].Name, mine[i].Labels, o.Name, o.Labels) == 0:
			m := mine[i]
			i++
			m.Count += o.Count
			if m.Kind == KindHistogram {
				if err = m.Hist.Merge(o.Hist); err != nil {
					err = fmt.Errorf("%s: %w", o.ID(), err)
				}
			}
			out = append(out, m)
		default:
			// Later merges add into the adopted buckets in place.
			c := *o
			c.Hist.Counts = slices.Clone(o.Hist.Counts)
			out = append(out, c)
		}
		if first == nil {
			first = err
		}
	}
	*s = append(out, mine[i:]...)
	return first
}

// WriteText renders the snapshot in the Prometheus text exposition format,
// the only place that format is written: each family's HELP (when a series
// of it has one) and TYPE once, ahead of its samples. A histogram's buckets
// are cumulative, told apart by an le label in its sorted place, and its
// _count is the +Inf bucket, so the two agree even mid-Observe.
func (s Snapshot) WriteText(w io.Writer) error {
	b := make([]byte, 0, 64*len(s))
	for i := range s {
		sr := &s[i]
		if i == 0 || s[i-1].Name != sr.Name {
			for j := i; j < len(s) && s[j].Name == sr.Name; j++ {
				if s[j].Help != "" {
					b = fmt.Appendf(b, "# HELP %s %s\n", sr.Name, s[j].Help)
					break
				}
			}
			b = fmt.Appendf(b, "# TYPE %s %s\n", sr.Name, kindNames[sr.Kind])
		}
		switch sr.Kind {
		case KindCounter:
			b = strconv.AppendUint(append(appendID(b, sr.Name, sr.Labels), ' '), sr.Count, 10)
		case KindGauge:
			b = strconv.AppendFloat(append(appendID(b, sr.Name, sr.Labels), ' '), sr.Value, 'g', -1, 64)
		case KindHistogram:
			at, _ := slices.BinarySearchFunc(sr.Labels, "le", func(l Label, key string) int { return strings.Compare(l.Key, key) })
			bucket := slices.Insert(slices.Clone(sr.Labels), at, Label{Key: "le"})
			var cum uint64
			for k, c := range sr.Hist.Counts {
				cum += c
				bucket[at].Value = "+Inf"
				if k < len(sr.Hist.Bounds) {
					bucket[at].Value = strconv.FormatFloat(sr.Hist.Bounds[k], 'g', -1, 64)
				}
				b = strconv.AppendUint(append(appendID(b, sr.Name+"_bucket", bucket), ' '), cum, 10)
				b = append(b, '\n')
			}
			b = strconv.AppendFloat(append(appendID(b, sr.Name+"_sum", sr.Labels), ' '), sr.Hist.Sum, 'g', -1, 64)
			b = append(b, '\n')
			b = strconv.AppendUint(append(appendID(b, sr.Name+"_count", sr.Labels), ' '), cum, 10)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}
