package trace

import (
	"testing"
	"time"
)

var monday = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC) // a Monday

func TestTypeOfDate(t *testing.T) {
	if TypeOfDate(monday) != Weekday {
		t.Fatal("Monday should be a weekday")
	}
	sat := time.Date(2005, 8, 27, 0, 0, 0, 0, time.UTC)
	sun := time.Date(2005, 8, 28, 0, 0, 0, 0, time.UTC)
	if TypeOfDate(sat) != Weekend || TypeOfDate(sun) != Weekend {
		t.Fatal("Saturday/Sunday should be weekends")
	}
	if Weekday.String() != "weekday" || Weekend.String() != "weekend" {
		t.Fatal("DayType strings wrong")
	}
}

func TestNewDayShape(t *testing.T) {
	d := NewDay(monday, DefaultPeriod)
	if d.Len() != 14400 {
		t.Fatalf("full day at 6s = %d samples, want 14400", d.Len())
	}
	for _, s := range d.Samples[:10] {
		if !s.Up {
			t.Fatal("fresh day samples should start Up")
		}
	}
	if d.Type() != Weekday {
		t.Fatal("day type wrong")
	}
}

func TestNewDayPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDay(monday, 0)
}

func TestIndexAtAndWindow(t *testing.T) {
	d := NewDay(monday, time.Minute)
	if d.Len() != 1440 {
		t.Fatalf("minute-day = %d samples", d.Len())
	}
	if d.IndexAt(-time.Hour) != 0 {
		t.Fatal("negative offset should clamp to 0")
	}
	if d.IndexAt(8*time.Hour) != 480 {
		t.Fatalf("IndexAt(8h) = %d", d.IndexAt(8*time.Hour))
	}
	if d.IndexAt(48*time.Hour) != 1440 {
		t.Fatal("past-end offset should clamp to Len")
	}
	w := d.Window(8*time.Hour, 2*time.Hour)
	if len(w) != 120 {
		t.Fatalf("2h window at 1min = %d samples", len(w))
	}
	if len(d.Window(23*time.Hour, 5*time.Hour)) != 60 {
		t.Fatal("window past midnight should truncate")
	}
	if len(d.Window(5*time.Hour, -time.Hour)) != 0 {
		t.Fatal("negative-length window should be empty")
	}
}

func TestDayClone(t *testing.T) {
	d := NewDay(monday, time.Minute)
	c := d.Clone()
	c.Samples[0].CPU = 99
	if d.Samples[0].CPU == 99 {
		t.Fatal("Clone aliases sample storage")
	}
}

func TestMachineAddDayOrdering(t *testing.T) {
	m := NewMachine("lab-01", time.Minute)
	d1 := NewDay(monday, time.Minute)
	d2 := NewDay(monday.AddDate(0, 0, 1), time.Minute)
	if err := m.AddDay(d1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDay(d2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDay(d1.Clone()); err == nil {
		t.Fatal("out-of-order day accepted")
	}
	bad := NewDay(monday.AddDate(0, 0, 2), time.Second)
	if err := m.AddDay(bad); err == nil {
		t.Fatal("mismatched period accepted")
	}
}

func TestMachineDaysOfType(t *testing.T) {
	m := NewMachine("lab-01", time.Minute)
	for i := 0; i < 14; i++ {
		if err := m.AddDay(NewDay(monday.AddDate(0, 0, i), time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	wd := m.DaysOfType(Weekday)
	we := m.DaysOfType(Weekend)
	if len(wd) != 10 || len(we) != 4 {
		t.Fatalf("weekdays=%d weekends=%d, want 10/4", len(wd), len(we))
	}
	for i := 1; i < len(wd); i++ {
		if !wd[i].Date.After(wd[i-1].Date) {
			t.Fatal("DaysOfType broke chronological order")
		}
	}
}

func TestDatasetHelpers(t *testing.T) {
	m1 := NewMachine("a", time.Minute)
	m2 := NewMachine("b", time.Minute)
	_ = m1.AddDay(NewDay(monday, time.Minute))
	_ = m2.AddDay(NewDay(monday, time.Minute))
	_ = m2.AddDay(NewDay(monday.AddDate(0, 0, 1), time.Minute))
	ds := &Dataset{Machines: []*Machine{m1, m2}}
	if ds.MachineDays() != 3 {
		t.Fatalf("MachineDays = %d", ds.MachineDays())
	}
	if ds.Find("b") != m2 || ds.Find("zzz") != nil {
		t.Fatal("Find wrong")
	}
}

func TestSplitRatio(t *testing.T) {
	m := NewMachine("lab-01", time.Minute)
	for i := 0; i < 70; i++ { // 10 weeks: 50 weekdays, 20 weekend days
		_ = m.AddDay(NewDay(monday.AddDate(0, 0, i), time.Minute))
	}
	sp, err := SplitHalf(m, Weekday)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Train) != 25 || len(sp.Test) != 25 {
		t.Fatalf("half split = %d/%d", len(sp.Train), len(sp.Test))
	}
	// Chronological: all training days precede all test days.
	if !sp.Train[len(sp.Train)-1].Date.Before(sp.Test[0].Date) {
		t.Fatal("split is not chronological")
	}
	for _, ratio := range [][2]int{{1, 9}, {3, 7}, {6, 4}, {9, 1}} {
		sp, err := SplitRatio(m, Weekday, ratio[0], ratio[1])
		if err != nil {
			t.Fatalf("ratio %v: %v", ratio, err)
		}
		if len(sp.Train) == 0 || len(sp.Test) == 0 {
			t.Fatalf("ratio %v produced an empty side", ratio)
		}
		if len(sp.Train)+len(sp.Test) != 50 {
			t.Fatalf("ratio %v lost days", ratio)
		}
	}
	sp64, _ := SplitRatio(m, Weekday, 6, 4)
	if len(sp64.Train) != 30 {
		t.Fatalf("6:4 of 50 days = %d train, want 30", len(sp64.Train))
	}
}

func TestSplitRatioErrors(t *testing.T) {
	m := NewMachine("lab-01", time.Minute)
	if _, err := SplitRatio(m, Weekday, 1, 1); err == nil {
		t.Fatal("empty machine accepted")
	}
	_ = m.AddDay(NewDay(monday, time.Minute))
	if _, err := SplitRatio(m, Weekday, 0, 1); err == nil {
		t.Fatal("zero ratio accepted")
	}
	// Single day: train gets it, test empty is unavoidable; ensure no panic.
	sp, err := SplitRatio(m, Weekday, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Train) != 1 {
		t.Fatalf("single-day split train=%d", len(sp.Train))
	}
}
