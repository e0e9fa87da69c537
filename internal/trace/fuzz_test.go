package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// FuzzReadBinary hardens the binary decoder against corrupt archives: it
// must reject or parse, never panic or over-allocate.
func FuzzReadBinary(f *testing.F) {
	ds := randomDataset(1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Add(buf.Bytes()[:buf.Len()/2])
	// An FGCSTRC2 file with compact days (randomDataset's are float32: its
	// memory is in hundredths of a MB), and one with a day of each tag.
	for _, m := range ds.Machines {
		for _, d := range m.Days {
			for i := range d.Samples {
				d.Samples[i] = Quantize(d.Samples[i])
			}
		}
	}
	for _, ds := range []*Dataset{ds, goldenV2Dataset()} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must survive a full encode/decode round trip —
		// the format is its own specification — and decode to what
		// encodes to the same bytes again.
		var out bytes.Buffer
		if err := WriteBinary(&out, got); err != nil {
			t.Fatalf("re-encode of parsed dataset failed: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		var out2 bytes.Buffer
		if err := WriteBinary(&out2, again); err != nil || !bytes.Equal(out2.Bytes(), out.Bytes()) {
			t.Fatalf("a decoded file re-encodes to other bytes (%v):\n%x\n%x", err, out.Bytes(), out2.Bytes())
		}
		// The streaming and the appending encoder agree.
		if b, err := AppendBinary(nil, got); err != nil || !bytes.Equal(b, out.Bytes()) {
			t.Fatalf("AppendBinary differs from WriteBinary (%v):\n%x\n%x", err, b, out.Bytes())
		}
	})
}

// FuzzDayCodec is the differential target for the day tag: a day is tagged
// compact exactly when a reference rule, written from decimal text and not
// from the codec's arithmetic, finds every sample a whole number of WAL
// units; a compact day decodes to the same bits; a float32 day is
// FGCSTRC1's records byte for byte, and decodes as the FGCSTRC1 reference
// does when it is finite.
//
// Each six bytes of data make a sample: a flags byte (bit 0 up; bits 1 and
// 2 move CPU and memory one ulp up; bits 3 and 4 set them to raw; bit 5
// negates CPU), a little-endian int16 of CPU units and a uint24 of memory
// units.
func FuzzDayCodec(f *testing.F) {
	f.Add([]byte{1, 0xe2, 0x04, 0xc4, 0x12, 0, 0, 0, 0, 0, 0, 0, 1, 0x0f, 0x27, 1, 0x40, 0}, 0.0)
	f.Add([]byte{1, 0xe2, 0x04, 0xc4, 0x12, 0, 3, 1, 0, 2, 0, 0}, 0.0)
	f.Add([]byte{0x21, 0, 0, 0, 0, 0}, 0.0)
	f.Add([]byte{0x09, 0, 0, 0, 0, 0}, math.Inf(1))
	f.Add([]byte{0x19, 0, 0, 0, 0, 0}, 1e-40)
	f.Add([]byte{0x09, 0, 0, 0, 0, 0}, float64(maxUnits)/CPUUnit)
	f.Add([]byte{0x11, 0, 0, 0, 0, 0}, float64(maxUnits+1)/MemUnit)
	f.Add([]byte{0x09, 0, 0, 0, 0, 0}, 33.335)
	f.Add([]byte{0x11, 0, 0, 0, 0, 0}, 0.1)
	f.Fuzz(func(t *testing.T, data []byte, raw float64) {
		day := &Day{Date: monday, Period: DefaultPeriod}
		exact := true
		for ; len(data) >= 6 && len(day.Samples) < 4096; data = data[6:] {
			flags := data[0]
			s := Sample{
				CPU:       float64(int16(binary.LittleEndian.Uint16(data[1:]))) / CPUUnit,
				FreeMemMB: float64(uint32(data[3])|uint32(data[4])<<8|uint32(data[5])<<16) / MemUnit,
				Up:        flags&1 != 0,
			}
			if flags&2 != 0 {
				s.CPU = math.Nextafter(s.CPU, math.Inf(1))
			}
			if flags&4 != 0 {
				s.FreeMemMB = math.Nextafter(s.FreeMemMB, math.Inf(1))
			}
			if flags&8 != 0 {
				s.CPU = raw
			}
			if flags&16 != 0 {
				s.FreeMemMB = raw
			}
			if flags&32 != 0 {
				s.CPU = -s.CPU
			}
			exact = exact && referenceExact(s.CPU, CPUUnit) && referenceExact(s.FreeMemMB, MemUnit)
			day.Samples = append(day.Samples, s)
		}
		m := NewMachine("m", DefaultPeriod)
		m.Days = []*Day{day}
		ds := &Dataset{Machines: []*Machine{m}}
		var enc bytes.Buffer
		if err := WriteBinary(&enc, ds); err != nil {
			t.Fatal(err)
		}
		if b, err := AppendBinary(nil, ds); err != nil || !bytes.Equal(b, enc.Bytes()) {
			t.Fatalf("AppendBinary differs from WriteBinary (%v)", err)
		}
		tag := enc.Bytes()[dayTagAt(m.ID)]
		if (tag == dayCompact) != exact {
			t.Fatalf("tag %d, reference finds the day exact: %v\n%+v", tag, exact, day.Samples)
		}
		got, err := ReadBinary(bytes.NewReader(enc.Bytes()))
		if tag == dayCompact {
			if err != nil {
				t.Fatalf("compact day refused: %v", err)
			}
			if i, ok := sameBits(day.Samples, got.Machines[0].Days[0].Samples); !ok {
				t.Fatalf("sample %d decoded as %+v, wrote %+v", i, got.Machines[0].Days[0].Samples[i], day.Samples[i])
			}
			return
		}
		var v1 bytes.Buffer
		if err := referenceWriteBinary(&v1, ds); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(untag(t, enc.Bytes()), v1.Bytes()) {
			t.Fatalf("float32 day differs from FGCSTRC1's records:\n%x\n%x", enc.Bytes(), v1.Bytes())
		}
		ref, refErr := referenceReadBinary(bytes.NewReader(v1.Bytes()))
		if refErr != nil {
			t.Fatalf("reference refused its own encoding: %v", refErr)
		}
		finite := true
		for _, s := range ref.Machines[0].Days[0].Samples {
			for _, v := range []float64{s.CPU, s.FreeMemMB} {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
		}
		switch {
		case finite && (err != nil || !reflect.DeepEqual(got, ref)):
			t.Fatalf("float32 day decoded differently from the reference (%v)", err)
		case !finite && err == nil:
			t.Fatal("a day with a non-finite float32 value decoded")
		}
	})
}

// referenceExact reports whether v is a whole number of 1/unit units that
// decodes back to its bits, by a rule of its own rather than the codec's
// arithmetic: v is finite, not -0 (a count of zero decodes to +0), within
// maxUnits units, and a CPU value is the float64 nearest its own two-place
// decimal text, a memory value a whole number once scaled by 16 (which a
// power of two scales exactly).
func referenceExact(v, unit float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) || (v == 0 && math.Signbit(v)) || math.Abs(math.Round(v*unit)) > maxUnits {
		return false
	}
	if unit == MemUnit {
		return v*16 == math.Trunc(v*16)
	}
	back, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64)
	return err == nil && math.Float64bits(back) == math.Float64bits(v)
}

// FuzzReadText does the same for the text decoder.
func FuzzReadText(f *testing.F) {
	ds := randomDataset(2)
	var buf bytes.Buffer
	if err := WriteText(&buf, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("fgcs-trace 1\nmachine m 6\nday 0\n1 2 1\n")
	f.Add("fgcs-trace 1\n# nothing else\n")
	f.Add("")
	f.Add("fgcs-trace 1\nmachine m 6\nday 1124668800\n# comment\n5 400 1\n90 10 0\n")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadText(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, got); err != nil {
			t.Fatalf("re-encode of parsed dataset failed: %v", err)
		}
		if _, err := ReadText(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q\nre-encoded: %q", err, data, out.Bytes())
		}
	})
}
