// Package trace models the history logs produced by the resource monitor:
// per-machine, per-day series of host-resource-usage samples (total host CPU
// load, free memory, machine-up flag) taken at a fixed period (6 seconds in
// the paper's testbed).
//
// The package also provides the dataset manipulations the evaluation
// methodology of Sections 6 and 7 needs: chronological train/test splits at
// arbitrary ratios, weekday/weekend partitioning, window extraction, and the
// noise-injection procedure of Section 7.3.
package trace

import (
	"fmt"
	"time"
)

// DefaultPeriod is the monitoring period used throughout the paper.
const DefaultPeriod = 6 * time.Second

// Sample is one observation of host resource usage. These are exactly the
// observable parameters of Section 3.1: quantities obtainable without special
// privileges on the host.
type Sample struct {
	// CPU is the total CPU usage of all host processes, in percent (0-100).
	CPU float64
	// FreeMemMB is the free physical memory available to a guest process,
	// in megabytes.
	FreeMemMB float64
	// Up reports whether the machine (and its FGCS services) was reachable
	// when the sample was due. A false value is an occurrence of URR:
	// either the owner revoked the resource or the machine failed.
	Up bool
}

// DayType distinguishes weekday from weekend logs; the SMP estimator only
// pools history from days of the same type (Section 4.2).
type DayType int

const (
	Weekday DayType = iota
	Weekend
)

// String returns "weekday" or "weekend".
func (t DayType) String() string {
	if t == Weekend {
		return "weekend"
	}
	return "weekday"
}

// TypeOfDate returns the DayType of a calendar date.
func TypeOfDate(date time.Time) DayType {
	switch date.Weekday() {
	case time.Saturday, time.Sunday:
		return Weekend
	default:
		return Weekday
	}
}

// Day is one calendar day of samples for one machine.
type Day struct {
	// Date is midnight (local) of the day the samples belong to.
	Date time.Time
	// Period is the sampling period.
	Period time.Duration
	// Samples holds one Sample per period, Samples[i] taken at
	// Date + i*Period. A full day at the 6 s default has 14400 samples.
	Samples []Sample
}

// NewDay allocates a Day covering the full 24 hours at the given period.
// All samples start as Up with zero load; callers fill them in.
func NewDay(date time.Time, period time.Duration) *Day {
	if period <= 0 {
		panic("trace: non-positive period")
	}
	n := int(24 * time.Hour / period)
	d := &Day{Date: date, Period: period, Samples: make([]Sample, n)}
	for i := range d.Samples {
		d.Samples[i].Up = true
	}
	return d
}

// Type returns the day's DayType.
func (d *Day) Type() DayType { return TypeOfDate(d.Date) }

// Len returns the number of samples in the day.
func (d *Day) Len() int { return len(d.Samples) }

// IndexAt returns the sample index corresponding to an offset from midnight,
// clamped into [0, Len()].
func (d *Day) IndexAt(offset time.Duration) int {
	if offset < 0 {
		return 0
	}
	i := int(offset / d.Period)
	if i > len(d.Samples) {
		i = len(d.Samples)
	}
	return i
}

// Window returns the sub-series of samples covering [start, start+length)
// offsets from midnight. The returned slice aliases the day's storage.
func (d *Day) Window(start, length time.Duration) []Sample {
	lo := d.IndexAt(start)
	hi := d.IndexAt(start + length)
	if hi < lo {
		hi = lo
	}
	return d.Samples[lo:hi]
}

// Clone returns a deep copy of the day.
func (d *Day) Clone() *Day {
	c := &Day{Date: d.Date, Period: d.Period}
	c.Samples = append([]Sample(nil), d.Samples...)
	return c
}

// Machine is the full log of one host machine: consecutive days of samples.
type Machine struct {
	// ID identifies the machine (host name in the testbed).
	ID string
	// Period is the sampling period shared by all days.
	Period time.Duration
	// Days are ordered chronologically.
	Days []*Day
}

// NewMachine returns an empty machine log.
func NewMachine(id string, period time.Duration) *Machine {
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Machine{ID: id, Period: period}
}

// AddDay appends a day to the log. Days must be appended in chronological
// order and share the machine's period.
func (m *Machine) AddDay(d *Day) error {
	if d.Period != m.Period {
		return fmt.Errorf("trace: day period %v does not match machine period %v", d.Period, m.Period)
	}
	if n := len(m.Days); n > 0 && !d.Date.After(m.Days[n-1].Date) {
		return fmt.Errorf("trace: day %v out of order", d.Date)
	}
	m.Days = append(m.Days, d)
	return nil
}

// DaysOfType returns the machine's days restricted to one DayType,
// chronological order preserved.
func (m *Machine) DaysOfType(t DayType) []*Day {
	var out []*Day
	for _, d := range m.Days {
		if d.Type() == t {
			out = append(out, d)
		}
	}
	return out
}

// Clone returns a deep copy of the machine log.
func (m *Machine) Clone() *Machine {
	c := NewMachine(m.ID, m.Period)
	for _, d := range m.Days {
		c.Days = append(c.Days, d.Clone())
	}
	return c
}

// Dataset is a collection of machine logs: the testbed trace.
type Dataset struct {
	Machines []*Machine
}

// MachineDays returns the total number of machine-days in the dataset.
func (ds *Dataset) MachineDays() int {
	n := 0
	for _, m := range ds.Machines {
		n += len(m.Days)
	}
	return n
}

// Find returns the machine with the given ID, or nil.
func (ds *Dataset) Find(id string) *Machine {
	for _, m := range ds.Machines {
		if m.ID == id {
			return m
		}
	}
	return nil
}
