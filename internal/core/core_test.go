package core

import (
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/predict"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

var monday = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)

func machineWithDailyFailure(days int) *trace.Machine {
	m := trace.NewMachine("test", trace.DefaultPeriod)
	for i := 0; i < days; i++ {
		d := trace.NewDay(monday.AddDate(0, 0, i), trace.DefaultPeriod)
		for j := range d.Samples {
			d.Samples[j] = trace.Sample{CPU: 5, FreeMemMB: 400, Up: true}
		}
		if i%2 == 0 && d.Type() == trace.Weekday {
			lo := d.IndexAt(9 * time.Hour)
			hi := d.IndexAt(9*time.Hour + 30*time.Minute)
			for j := lo; j < hi; j++ {
				d.Samples[j].Up = false
			}
		}
		if err := m.AddDay(d); err != nil {
			panic(err)
		}
	}
	return m
}

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil, Options{}); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := NewPredictor(trace.NewMachine("x", time.Second), Options{}); err == nil {
		t.Fatal("empty machine accepted")
	}
	m := machineWithDailyFailure(5)
	bad := Options{Model: avail.Config{Th1: 90, Th2: 10, SuspendLimit: time.Minute}}
	if _, err := NewPredictor(m, bad); err == nil {
		t.Fatal("invalid model config accepted")
	}
	p, err := NewPredictor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.smp.Cfg != avail.DefaultConfig() {
		t.Fatalf("default config not applied: %+v", p.smp.Cfg)
	}
}

func TestPredictorTR(t *testing.T) {
	p, err := NewPredictor(machineWithDailyFailure(14), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := predict.Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	pred, err := p.TR(trace.Weekday, w)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TR <= 0 || pred.TR >= 1 {
		t.Fatalf("TR = %v, want strictly inside (0,1) for a half-failing machine", pred.TR)
	}
	// A window away from the failure hour is fully reliable.
	calm, err := p.TR(trace.Weekday, predict.Window{Start: 1 * time.Hour, Length: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if calm.TR != 1 {
		t.Fatalf("calm-window TR = %v, want 1", calm.TR)
	}
}

func TestPredictorTRAt(t *testing.T) {
	p, _ := NewPredictor(machineWithDailyFailure(14), Options{})
	// Predict for the Friday of the second week at 08:30.
	at := monday.AddDate(0, 0, 11).Add(8*time.Hour + 30*time.Minute)
	tr, err := p.TRAt(at, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tr <= 0 || tr >= 1 {
		t.Fatalf("TRAt = %v", tr)
	}
	// Midnight-crossing job lengths clip instead of erroring.
	if _, err := p.TRAt(monday.AddDate(0, 0, 11).Add(23*time.Hour), 10*time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TRAt(at, 0); err == nil {
		t.Fatal("zero job length accepted")
	}
	// No history before the first day.
	if _, err := p.TRAt(monday.Add(time.Hour), time.Hour); err == nil {
		t.Fatal("prediction without prior history accepted")
	}
}

func TestPredictorOnGeneratedTrace(t *testing.T) {
	params := workload.DefaultParams()
	params.Machines = 1
	params.Days = 28
	ds, err := workload.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(ds.Machines[0], Options{HistoryDays: 8})
	if err != nil {
		t.Fatal(err)
	}
	at := params.Start.AddDate(0, 0, 21).Add(9 * time.Hour) // a weekday
	tr, err := p.TRAt(at, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tr < 0 || tr > 1 {
		t.Fatalf("TR = %v", tr)
	}
}
