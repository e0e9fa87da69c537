package avail

import (
	"time"

	"fgcs/internal/trace"
)

// Occupancy is the fraction of time spent in each availability state
// (indexed by State-1). The recoverable share Occupancy[S1-1]+Occupancy[S2-1]
// is the machine's effective capacity for guest jobs — the quantity earlier
// CPU-availability studies measured without the state structure.
type Occupancy [NumStates]float64

// Recoverable returns the fraction of time a guest job could run.
func (o Occupancy) Recoverable() float64 { return o[S1-1] + o[S2-1] }

// Of returns the fraction for a state.
func (o Occupancy) Of(s State) float64 {
	if s < S1 || s > S5 {
		return 0
	}
	return o[s-1]
}

// tally adds one count per classified sample; normalize turns the counts into
// fractions of their total (an empty tally stays zero).
func (o *Occupancy) tally(states []State) {
	for _, s := range states {
		o[s-1]++
	}
}

func (o *Occupancy) normalize() {
	n := 0.0
	for _, c := range o {
		n += c
	}
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range o {
		o[i] *= inv
	}
}

// StateOccupancy classifies the samples and returns the time fraction per
// state. An empty input returns the zero Occupancy.
func StateOccupancy(samples []trace.Sample, cfg Config, period time.Duration) Occupancy {
	var o Occupancy
	o.tally(Classify(samples, cfg, period))
	o.normalize()
	return o
}

// HourlyOccupancy computes per-clock-hour occupancies over a set of days —
// the diurnal availability profile the SMP's same-clock-window pooling
// exploits. Each day is classified whole and its states bucketed by hour, so
// an excursion above Th2 that straddles an hour boundary counts in both hours
// as what the day classifies it, not as two shorter transients.
func HourlyOccupancy(days []*trace.Day, cfg Config) [24]Occupancy {
	var out [24]Occupancy
	var states []State
	for _, d := range days {
		states = ClassifyInto(states, d.Samples, cfg, d.Period)
		for h := range out {
			lo, hi := d.IndexAt(time.Duration(h)*time.Hour), d.IndexAt(time.Duration(h+1)*time.Hour)
			out[h].tally(states[lo:hi])
		}
	}
	for h := range out {
		out[h].normalize()
	}
	return out
}
