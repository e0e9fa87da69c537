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
// sample count, in both format versions and under both day tags: one beyond
// a week of periods is refused outright, and a plausible one with no byte
// behind it costs at most the 65 536-sample initial capacity of a float32
// day, or the first 64 KiB of a compact body, before the read fails.
func TestReadBinaryCapsInitialCapacity(t *testing.T) {
	m := NewMachine("m", time.Millisecond)
	m.Days = []*Day{{Date: monday, Period: m.Period}}
	ds := &Dataset{Machines: []*Machine{m}}
	// file returns the encoding of ds, whose one day holds no sample, cut
	// after the day's sample count, with the count set to samples and the
	// day's tag and body prefix after it.
	file := func(write func(io.Writer, *Dataset) error, cut int, samples uint32, rest ...byte) []byte {
		var buf bytes.Buffer
		if err := write(&buf, ds); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()[:buf.Len()-cut]
		binary.LittleEndian.PutUint32(b[len(b)-4:], samples)
		return append(b, rest...)
	}
	week := uint32(7 * 24 * time.Hour / time.Millisecond)
	body := binary.LittleEndian.AppendUint32(nil, (week+7)/8+2*week) // the least a compact body of a week can hold
	for _, c := range []struct {
		name string
		read func(io.Reader) (*Dataset, error)
		file func(samples uint32) []byte
	}{
		{"reference v1", referenceReadBinary, func(n uint32) []byte { return file(referenceWriteBinary, 0, n) }},
		{"v1", ReadBinary, func(n uint32) []byte { return file(referenceWriteBinary, 0, n) }},
		{"v2 float32", ReadBinary, func(n uint32) []byte { return file(WriteBinary, 5, n, dayFloat32) }},
		{"v2 compact", ReadBinary, func(n uint32) []byte { return file(WriteBinary, 5, n, append([]byte{dayCompact}, body...)...) }},
	} {
		if _, err := c.read(bytes.NewReader(c.file(week + 1))); err == nil || !strings.Contains(err.Error(), "implausible sample count") {
			t.Fatalf("%s: oversized count: %v", c.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.read(bytes.NewReader(c.file(week)))
		runtime.ReadMemStats(&after)
		if err != io.EOF {
			t.Fatalf("%s: count with no record behind it: %v", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Fatalf("%s: a %d-sample claim allocated %d bytes", c.name, week, grew)
		}
	}
}

// goldenDataset is small enough to read in hex and holds what a format change
// would most likely disturb: a machine with no day, days shorter than their
// period allows, and samples whose float32 forms are NaN, +Inf, -Inf, -0, an
// overflow to +Inf, a subnormal, and a down sample. It is the dataset of the
// FGCSTRC1 fixture.
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

// goldenV2Dataset holds a day of each tag that decodes: a compact day of
// nine samples (two bitmap bytes, deltas of either sign, the largest
// compact value and a down sample), and a float32 day whose samples are -0,
// a subnormal, and values with no exact form in WAL units.
func goldenV2Dataset() *Dataset {
	m := NewMachine("lab-01", time.Hour)
	for i, samples := range [][]Sample{
		{
			{CPU: 12.5, FreeMemMB: 300.25, Up: true},
			{CPU: 0, FreeMemMB: 0},
			{CPU: 99.99, FreeMemMB: 1024.0625, Up: true},
			{CPU: 0.01, FreeMemMB: 0.0625, Up: true},
			{CPU: -3, FreeMemMB: 512, Up: true},
			{CPU: 100, FreeMemMB: maxUnits / MemUnit, Up: true},
			{CPU: 100, FreeMemMB: 511.5, Up: true},
			{CPU: 7.25, FreeMemMB: 511.5},
			{CPU: 7.25, FreeMemMB: 400, Up: true},
		},
		{
			{CPU: math.Copysign(0, -1), FreeMemMB: 1e-40, Up: true},
			{CPU: 99.99, FreeMemMB: 0.1},
			{CPU: 12.345, FreeMemMB: 300, Up: true},
		},
	} {
		if err := m.AddDay(&Day{Date: monday.AddDate(0, 0, i), Period: m.Period, Samples: samples}); err != nil {
			panic(err)
		}
	}
	return &Dataset{Machines: []*Machine{NewMachine("idle", DefaultPeriod), m}}
}

// TestBinaryGolden pins the FGCSTRC2 encoder's bytes, and holds the decoder
// to them: the compact day comes back bit for bit, and decoding and
// re-encoding gives the same bytes.
func TestBinaryGolden(t *testing.T) {
	ds := goldenV2Dataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "testdata/golden/fgcstrc2.hex", buf.Bytes())
	if b, err := AppendBinary([]byte("x"), ds); err != nil || !bytes.Equal(b[1:], buf.Bytes()) {
		t.Fatalf("AppendBinary differs from WriteBinary (%v)", err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(ds.Machines[1].Days[0].Samples, got.Machines[1].Days[0].Samples); !ok {
		t.Fatalf("compact sample %d: %+v, wrote %+v", i, got.Machines[1].Days[0].Samples[i], ds.Machines[1].Days[0].Samples[i])
	}
	var again bytes.Buffer
	if err := WriteBinary(&again, got); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("decode and re-encode differs from the original (%v)", err)
	}
}

// TestBinaryV1Golden keeps the parent format's fixture, written by the
// reflective encoder of an earlier commit, as a decode-only one: its day
// bodies are the float32 bodies FGCSTRC2 writes for the same dataset, byte
// for byte, and the decoder reads it up to its first non-finite sample,
// which it refuses by day and index.
func TestBinaryV1Golden(t *testing.T) {
	v1 := wiretest.Hex(t, "testdata/golden/fgcstrc1.hex")
	var v2 bytes.Buffer
	if err := WriteBinary(&v2, goldenDataset()); err != nil {
		t.Fatal(err)
	}
	if got := untag(t, v2.Bytes()); !bytes.Equal(got, v1) {
		t.Fatalf("FGCSTRC2 without its tags:\n%x\nFGCSTRC1 fixture:\n%x", got, v1)
	}
	const want = `machine "lab-01" day 2005-08-22 sample 1: not finite`
	if _, err := ReadBinary(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("decoding the fixture: %v, want %q", err, want)
	}
}

// TestReadRefusesNonFinite: both decoders refuse a NaN or infinite value in
// either column, naming its day and index.
func TestReadRefusesNonFinite(t *testing.T) {
	for _, bad := range []Sample{{CPU: math.NaN()}, {CPU: math.Inf(1)}, {FreeMemMB: math.Inf(-1)}, {FreeMemMB: math.NaN(), Up: true}} {
		m := NewMachine("lab-01", time.Hour)
		day := &Day{Date: monday.AddDate(0, 0, 1), Period: m.Period, Samples: []Sample{{CPU: 1, Up: true}, {CPU: 2}, bad}}
		if err := m.AddDay(day); err != nil {
			t.Fatal(err)
		}
		ds := &Dataset{Machines: []*Machine{m}}
		const want = `machine "lab-01" day 2005-08-23 sample 2: not finite`
		var bin, text bytes.Buffer
		if err := WriteBinary(&bin, ds); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&text, ds); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(&bin); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: ReadBinary: %v", bad, err)
		}
		if _, err := ReadText(&text); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: ReadText: %v", bad, err)
		}
	}
}

// TestQuantizedDaysAreCompact: whatever Quantize returns for a finite
// reading in range, a negative one that rounds to zero included, has an
// exact form in WAL units, so a day of quantized samples is tagged compact
// and decodes to the same bits.
func TestQuantizedDaysAreCompact(t *testing.T) {
	r := rng.New(5)
	day := &Day{Date: monday, Period: DefaultPeriod}
	for _, v := range []float64{-0.001, -0.004, 0.004999, 33.335, 1e9, -1e9} {
		day.Samples = append(day.Samples, Quantize(Sample{CPU: v, FreeMemMB: v / 10, Up: true}))
	}
	for i := 0; i < 5000; i++ {
		day.Samples = append(day.Samples, Quantize(Sample{CPU: r.Uniform(-1, 101), FreeMemMB: r.Uniform(0, 4096), Up: r.Bool(0.9)}))
	}
	m := NewMachine("q", DefaultPeriod)
	m.Days = []*Day{day}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Dataset{Machines: []*Machine{m}}); err != nil {
		t.Fatal(err)
	}
	if tag := buf.Bytes()[dayTagAt(m.ID)]; tag != dayCompact {
		t.Fatalf("a day of quantized samples is tagged %d", tag)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(day.Samples, got.Machines[0].Days[0].Samples); !ok {
		t.Fatalf("sample %d: %+v, wrote %+v", i, got.Machines[0].Days[0].Samples[i], day.Samples[i])
	}
}

// dayTagAt is the offset of the first day's tag in the FGCSTRC2 encoding of
// one machine with the given id.
func dayTagAt(id string) int { return len(binaryMagic) + 4 + 2 + len(id) + 8 + 4 + 8 + 4 }

// sameBits reports whether two sample runs are equal bit for bit, and
// otherwise the first index where they differ.
func sameBits(a, b []Sample) (int, bool) {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i].Up != b[i].Up ||
			math.Float64bits(a[i].CPU) != math.Float64bits(b[i].CPU) ||
			math.Float64bits(a[i].FreeMemMB) != math.Float64bits(b[i].FreeMemMB) {
			return i, false
		}
	}
	return 0, true
}

// untag returns the FGCSTRC1 encoding of the dataset an FGCSTRC2 encoding
// whose days are all float32-tagged holds: the same bytes, less the tags,
// under the old magic.
func untag(t testing.TB, v2 []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	out := append([]byte(binaryMagicV1), v2[8:12]...)
	p := 12
	for nm := le.Uint32(v2[8:]); nm > 0; nm-- {
		head := 2 + int(le.Uint16(v2[p:])) + 8 + 4
		nd := le.Uint32(v2[p+head-4:])
		out = append(out, v2[p:p+head]...)
		for p += head; nd > 0; nd-- {
			ns := int(le.Uint32(v2[p+8:]))
			if tag := v2[p+12]; tag != dayFloat32 {
				t.Fatalf("the day at byte %d is tagged %d", p, tag)
			}
			out = append(out, v2[p:p+12]...)
			out = append(out, v2[p+13:p+13+sampleBytes*ns]...)
			p += 13 + sampleBytes*ns
		}
	}
	if p != len(v2) {
		t.Fatalf("%d bytes after the last day", len(v2)-p)
	}
	return out
}

// referenceSampleRec is the fixed-width sample record as the reference codec
// hands it to encoding/binary.
type referenceSampleRec struct {
	CPU float32
	Mem float32
	Up  uint8
}

// referenceWriteBinary is WriteBinary as it was before the format had a
// non-reflective encoder, and FGCSTRC1 its format: one binary.Write per field and per sample. The
// differential tests hold the codec to its bytes.
func referenceWriteBinary(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagicV1); err != nil {
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

// referenceReadBinary is FGCSTRC1's ReadBinary as it was before it read
// records in chunks: one binary.Read per field and per sample.
func referenceReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagicV1))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagicV1 {
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
	Untag                = untag
	SameBits             = sameBits
)
