package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fgcs/internal/rng"
	"fgcs/internal/wire/wiretest"
)

// randomDataset builds an arbitrary small dataset from a seed, for round-trip
// property tests.
func randomDataset(seed uint64) *Dataset {
	r := rng.New(seed)
	ds := &Dataset{}
	nm := 1 + r.Intn(3)
	for i := 0; i < nm; i++ {
		period := time.Duration(1+r.Intn(10)) * time.Second
		m := NewMachine(string(rune('a'+i))+"-host", period)
		nd := 1 + r.Intn(4)
		for j := 0; j < nd; j++ {
			d := &Day{Date: monday.AddDate(0, 0, j), Period: period}
			ns := r.Intn(50)
			for k := 0; k < ns; k++ {
				d.Samples = append(d.Samples, Sample{
					CPU:       math.Round(r.Uniform(0, 100)*100) / 100,
					FreeMemMB: math.Round(r.Uniform(0, 512)*100) / 100,
					Up:        r.Bool(0.95),
				})
			}
			if err := m.AddDay(d); err != nil {
				panic(err)
			}
		}
		ds.Machines = append(ds.Machines, m)
	}
	return ds
}

func datasetsEqual(a, b *Dataset, tol float64) bool {
	if len(a.Machines) != len(b.Machines) {
		return false
	}
	for i := range a.Machines {
		ma, mb := a.Machines[i], b.Machines[i]
		if ma.ID != mb.ID || ma.Period != mb.Period || len(ma.Days) != len(mb.Days) {
			return false
		}
		for j := range ma.Days {
			da, db := ma.Days[j], mb.Days[j]
			if da.Date.Unix() != db.Date.Unix() || len(da.Samples) != len(db.Samples) {
				return false
			}
			for k := range da.Samples {
				sa, sb := da.Samples[k], db.Samples[k]
				if sa.Up != sb.Up ||
					math.Abs(sa.CPU-sb.CPU) > tol ||
					math.Abs(sa.FreeMemMB-sb.FreeMemMB) > tol {
					return false
				}
			}
		}
	}
	return true
}

func TestBinaryRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		ds := randomDataset(seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		// Binary uses float32; allow that quantization.
		return datasetsEqual(ds, got, 1e-3)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		ds := randomDataset(seed)
		var buf bytes.Buffer
		if err := WriteText(&buf, ds); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return datasetsEqual(ds, got, 0)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid magic, truncated body.
	if _, err := ReadBinary(bytes.NewReader([]byte(binaryMagic))); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestReadTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"wrong header\n",
		"fgcs-trace 1\nday 123\n",            // day before machine
		"fgcs-trace 1\nmachine m 6\n1 2 3\n", // sample before day
		"fgcs-trace 1\nmachine m 0\n",        // zero period
		"fgcs-trace 1\nmachine m 6\nday notanumber\n",   // bad date
		"fgcs-trace 1\nmachine m 6\nday 0\nx y z\n",     // bad sample
		"fgcs-trace 1\nmachine m 6\nday 0\n1 2\n",       // short sample
		"fgcs-trace 1\nmachine m\n",                     // malformed machine
		"fgcs-trace 1\nmachine m 6\nday 86400\nday 0\n", // out-of-order days
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Fatalf("malformed input accepted: %q", c)
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "fgcs-trace 1\n# comment\nmachine m 6\n\nday 0\n10 100 1\n"
	ds, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Machines) != 1 || len(ds.Machines[0].Days[0].Samples) != 1 {
		t.Fatal("comment/blank handling wrong")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	ds := randomDataset(1234)
	for _, name := range []string{"trace.bin", "trace.txt"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, ds); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tol := 0.0
		if name == "trace.bin" {
			tol = 1e-3
		}
		if !datasetsEqual(ds, got, tol) {
			t.Fatalf("%s round trip mismatch", name)
		}
	}
	if err := SaveFile("/nonexistent-dir/x.bin", ds); err == nil {
		t.Fatal("bad path accepted")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSaveLoadGzip(t *testing.T) {
	dir := t.TempDir()
	ds := randomDataset(777)
	path := filepath.Join(dir, "trace.bin.gz")
	if err := SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(ds, got, 1e-3) {
		t.Fatal("gzip round trip mismatch")
	}
	// A non-gzip file with a .gz name must error, not crash.
	bad := filepath.Join(dir, "bad.gz")
	if err := SaveFile(filepath.Join(dir, "plain.bin"), ds); err != nil {
		t.Fatal(err)
	}
	if err := copyFile(filepath.Join(dir, "plain.bin"), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("non-gzip content with .gz extension accepted")
	}
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func TestGzipActuallyCompresses(t *testing.T) {
	// A day of real-looking samples must compress substantially.
	d := NewDay(monday, DefaultPeriod)
	for i := range d.Samples {
		d.Samples[i] = Sample{CPU: float64(i%7) * 10, FreeMemMB: 300, Up: true}
	}
	m := NewMachine("z", DefaultPeriod)
	if err := m.AddDay(d); err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Machines: []*Machine{m}}
	dir := t.TempDir()
	plain := filepath.Join(dir, "a.bin")
	zipped := filepath.Join(dir, "a.bin.gz")
	if err := SaveFile(plain, ds); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(zipped, ds); err != nil {
		t.Fatal(err)
	}
	ps, _ := os.Stat(plain)
	zs, _ := os.Stat(zipped)
	if zs.Size()*4 > ps.Size() {
		t.Fatalf("gzip size %d not much smaller than plain %d", zs.Size(), ps.Size())
	}
}

// TestSaveFileKeepsPreviousOnError is the archive's crash contract: a save
// that fails — the encoder refuses the dataset, or the disk is full — leaves
// the file of the previous save loadable and no temporary file behind.
func TestSaveFileKeepsPreviousOnError(t *testing.T) {
	good := randomDataset(99)
	unencodable := &Dataset{Machines: []*Machine{NewMachine(strings.Repeat("x", math.MaxUint16+1), DefaultPeriod)}}
	for _, name := range []string{"trace.bin", "trace.bin.gz", "trace.txt"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveFile(path, good); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := func(what string) {
			t.Helper()
			got, err := LoadFile(path)
			if err != nil || !datasetsEqual(good, got, 1e-3) {
				t.Fatalf("%s: previous file lost after %s (%v)", name, what, err)
			}
			if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("%s: temporary file left after %s (%v)", name, what, err)
			}
		}
		// The text format has no length field to overflow.
		if name != "trace.txt" {
			if err := SaveFile(path, unencodable); err == nil {
				t.Fatalf("%s: a 65 536-byte machine id was saved", name)
			}
			check("an encode error")
		}
		// A temporary file that is a link to /dev/full takes no byte.
		if _, err := os.Stat("/dev/full"); err != nil {
			continue
		}
		if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
			t.Fatal(err)
		}
		if err := SaveFile(path, good); err == nil {
			t.Fatalf("%s: saved to a full disk", name)
		}
		check("a full disk")
	}
}

// TestReadBinaryCapsInitialCapacity pins the two guards on a day's declared
// sample count: one beyond a week of periods is refused outright, and a
// plausible one with no record behind it costs at most the 65 536-sample
// initial capacity before the read fails.
func TestReadBinaryCapsInitialCapacity(t *testing.T) {
	header := func(samples uint32) []byte {
		m := NewMachine("m", time.Millisecond)
		m.Days = []*Day{{Date: monday, Period: m.Period}}
		b, err := AppendBinary(nil, &Dataset{Machines: []*Machine{m}})
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(b[len(b)-4:], samples)
		return b
	}
	week := uint32(7 * 24 * time.Hour / time.Millisecond)
	for _, read := range []func(io.Reader) (*Dataset, error){ReadBinary, referenceReadBinary} {
		if _, err := read(bytes.NewReader(header(week + 1))); err == nil || !strings.Contains(err.Error(), "implausible sample count") {
			t.Fatalf("oversized count: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read(bytes.NewReader(header(week)))
		runtime.ReadMemStats(&after)
		if err != io.EOF {
			t.Fatalf("count with no record behind it: %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Fatalf("a %d-sample claim allocated %d bytes", week, grew)
		}
	}
}

// goldenDataset is small enough to read in hex and holds what a format change
// would most likely disturb: a machine with no day, days shorter than their
// period allows, and samples whose float32 forms are NaN, +Inf, -Inf, -0, an
// overflow to +Inf, a subnormal, and a down sample.
func goldenDataset() *Dataset {
	m := NewMachine("lab-01", time.Hour)
	for i, samples := range [][]Sample{
		{
			{CPU: 12.5, FreeMemMB: 300.25, Up: true},
			{CPU: math.NaN(), FreeMemMB: math.Inf(1), Up: true},
			{CPU: math.Inf(-1), FreeMemMB: math.Copysign(0, -1), Up: true},
			{},
		},
		{
			{CPU: 2 * math.MaxFloat32, FreeMemMB: 1e-40, Up: true},
			{CPU: 99.99, FreeMemMB: 0.1},
		},
	} {
		if err := m.AddDay(&Day{Date: monday.AddDate(0, 0, i), Period: m.Period, Samples: samples}); err != nil {
			panic(err)
		}
	}
	return &Dataset{Machines: []*Machine{NewMachine("idle", DefaultPeriod), m}}
}

// TestBinaryGolden pins the binary format, sample records included, to bytes
// written by the reflective encoder of the commit before AppendBinary existed.
func TestBinaryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, goldenDataset()); err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "testdata/golden/fgcstrc1.hex", buf.Bytes())
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteBinary(&again, got); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("decode and re-encode differs from the original (%v)", err)
	}
}

// referenceSampleRec is the fixed-width sample record as the reference codec
// hands it to encoding/binary.
type referenceSampleRec struct {
	CPU float32
	Mem float32
	Up  uint8
}

// referenceWriteBinary is WriteBinary as it was before the format had a
// non-reflective encoder: one binary.Write per field and per sample. The
// differential tests hold the codec to its bytes.
func referenceWriteBinary(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(ds.Machines))); err != nil {
		return err
	}
	for _, m := range ds.Machines {
		if len(m.ID) > math.MaxUint16 {
			return fmt.Errorf("trace: machine id too long")
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(m.ID))); err != nil {
			return err
		}
		if _, err := bw.WriteString(m.ID); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, m.Period.Nanoseconds()); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(m.Days))); err != nil {
			return err
		}
		for _, d := range m.Days {
			if err := binary.Write(bw, binary.LittleEndian, d.Date.Unix()); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(len(d.Samples))); err != nil {
				return err
			}
			for _, s := range d.Samples {
				up := uint8(0)
				if s.Up {
					up = 1
				}
				rec := referenceSampleRec{CPU: float32(s.CPU), Mem: float32(s.FreeMemMB), Up: up}
				if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// referenceReadBinary is ReadBinary as it was before it read records in
// chunks: one binary.Read per field and per sample.
func referenceReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var nm uint32
	if err := binary.Read(br, binary.LittleEndian, &nm); err != nil {
		return nil, err
	}
	ds := &Dataset{}
	for i := uint32(0); i < nm; i++ {
		var idLen uint16
		if err := binary.Read(br, binary.LittleEndian, &idLen); err != nil {
			return nil, err
		}
		id := make([]byte, idLen)
		if _, err := io.ReadFull(br, id); err != nil {
			return nil, err
		}
		var periodNS int64
		if err := binary.Read(br, binary.LittleEndian, &periodNS); err != nil {
			return nil, err
		}
		if periodNS <= 0 {
			return nil, fmt.Errorf("trace: invalid period %d", periodNS)
		}
		m := NewMachine(string(id), time.Duration(periodNS))
		var nd uint32
		if err := binary.Read(br, binary.LittleEndian, &nd); err != nil {
			return nil, err
		}
		for j := uint32(0); j < nd; j++ {
			var unix int64
			if err := binary.Read(br, binary.LittleEndian, &unix); err != nil {
				return nil, err
			}
			var ns uint32
			if err := binary.Read(br, binary.LittleEndian, &ns); err != nil {
				return nil, err
			}
			if plausible := 7 * 24 * time.Hour / m.Period; plausible < math.MaxUint32 && ns > uint32(plausible) {
				return nil, fmt.Errorf("trace: implausible sample count %d", ns)
			}
			capHint := ns
			if capHint > 1<<16 {
				capHint = 1 << 16
			}
			d := &Day{Date: time.Unix(unix, 0).UTC(), Period: m.Period, Samples: make([]Sample, 0, capHint)}
			for k := uint32(0); k < ns; k++ {
				var rec referenceSampleRec
				if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
					return nil, err
				}
				d.Samples = append(d.Samples, Sample{CPU: float64(rec.CPU), FreeMemMB: float64(rec.Mem), Up: rec.Up != 0})
			}
			if err := m.AddDay(d); err != nil {
				return nil, err
			}
		}
		ds.Machines = append(ds.Machines, m)
	}
	return ds, nil
}

// The differential tests need internal/workload, which imports this package,
// so they live in the external test package and reach the references here.
var (
	ReferenceWriteBinary = referenceWriteBinary
	ReferenceReadBinary  = referenceReadBinary
)
