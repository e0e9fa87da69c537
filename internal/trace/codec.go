package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The binary trace format is what the state manager archives on disk: a
// magic header followed by machines, days and fixed-width samples. The text
// format is a line-oriented human-readable equivalent used by the CLI tools.

const binaryMagic = "FGCSTRC1"

const (
	sampleBytes = 9    // one sample record: float32 CPU, float32 free memory, an up byte
	readChunk   = 4096 // sample records ReadBinary reads and decodes at a time
)

// WriteBinary encodes the dataset in the compact binary format, a day a Write.
func WriteBinary(w io.Writer, ds *Dataset) error {
	le := binary.LittleEndian
	buf := append(make([]byte, 0, 64), binaryMagic...)
	buf = le.AppendUint32(buf, uint32(len(ds.Machines)))
	for _, m := range ds.Machines {
		if len(m.ID) > math.MaxUint16 {
			return fmt.Errorf("trace: machine id too long")
		}
		buf = le.AppendUint16(buf, uint16(len(m.ID)))
		buf = append(buf, m.ID...)
		buf = le.AppendUint64(buf, uint64(m.Period.Nanoseconds()))
		buf = le.AppendUint32(buf, uint32(len(m.Days)))
		for _, d := range m.Days {
			buf = le.AppendUint64(buf, uint64(d.Date.Unix()))
			buf = le.AppendUint32(buf, uint32(len(d.Samples)))
			off := len(buf)
			buf = slices.Grow(buf, sampleBytes*len(d.Samples))[:off+sampleBytes*len(d.Samples)]
			for _, s := range d.Samples {
				rec := buf[off : off+sampleBytes : off+sampleBytes]
				le.PutUint32(rec, math.Float32bits(float32(s.CPU)))
				le.PutUint32(rec[4:], math.Float32bits(float32(s.FreeMemMB)))
				rec[8] = 0
				if s.Up {
					rec[8] = 1
				}
				off += sampleBytes
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// BinarySize returns the number of bytes WriteBinary produces for ds.
func BinarySize(ds *Dataset) int {
	n := len(binaryMagic) + 4
	for _, m := range ds.Machines {
		n += 2 + len(m.ID) + 8 + 4
		for _, d := range m.Days {
			n += 8 + 4 + sampleBytes*len(d.Samples)
		}
	}
	return n
}

// ReadBinary decodes a dataset written by WriteBinary.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	// Scratch: field takes the fixed-width header fields, chunk sample records.
	field := make([]byte, 12)
	var chunk []byte
	magic := field[:len(binaryMagic)]
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	if _, err := io.ReadFull(br, field[:4]); err != nil {
		return nil, err
	}
	nm := le.Uint32(field)
	ds := &Dataset{}
	for i := uint32(0); i < nm; i++ {
		if _, err := io.ReadFull(br, field[:2]); err != nil {
			return nil, err
		}
		// A claimed length is allocated only once its first buffer-full of
		// bytes has arrived, like the samples below.
		idLen := int(le.Uint16(field))
		if _, err := br.Peek(min(idLen, br.Size())); err != nil {
			return nil, err
		}
		id := make([]byte, idLen)
		if _, err := io.ReadFull(br, id); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, field[:8]); err != nil {
			return nil, err
		}
		periodNS := int64(le.Uint64(field))
		if periodNS <= 0 {
			return nil, fmt.Errorf("trace: invalid period %d", periodNS)
		}
		m := NewMachine(string(id), time.Duration(periodNS))
		if _, err := io.ReadFull(br, field[:4]); err != nil {
			return nil, err
		}
		nd := le.Uint32(field)
		for j := uint32(0); j < nd; j++ {
			if _, err := io.ReadFull(br, field[:12]); err != nil {
				return nil, err
			}
			unix, ns := int64(le.Uint64(field)), le.Uint32(field[8:])
			if plausible := 7 * 24 * time.Hour / m.Period; plausible < math.MaxUint32 && ns > uint32(plausible) {
				return nil, fmt.Errorf("trace: implausible sample count %d", ns)
			}
			// Grow the sample slice as records actually arrive rather than
			// trusting the declared count: a corrupt or hostile header must
			// not be able to demand an allocation before its first records
			// are there, nor a multi-gigabyte one after.
			capHint := min(ns, 1<<16)
			d := &Day{Date: time.Unix(unix, 0).UTC(), Period: m.Period, Samples: []Sample{}}
			for left := int(ns); left > 0; {
				n := min(left, readChunk)
				left -= n
				chunk = slices.Grow(chunk[:0], n*sampleBytes)[:n*sampleBytes]
				if _, err := io.ReadFull(br, chunk); err != nil {
					return nil, err
				}
				// The records are here, so the slice may grow by them: the
				// first ones buy the declared capacity.
				if cap(d.Samples) == 0 {
					d.Samples = make([]Sample, 0, capHint)
				}
				at := len(d.Samples)
				d.Samples = slices.Grow(d.Samples, n)[:at+n]
				for k, out := 0, d.Samples[at:]; k < n; k++ {
					rec := chunk[k*sampleBytes : (k+1)*sampleBytes : (k+1)*sampleBytes]
					out[k] = Sample{
						CPU:       float64(math.Float32frombits(le.Uint32(rec))),
						FreeMemMB: float64(math.Float32frombits(le.Uint32(rec[4:]))),
						Up:        rec[8] != 0,
					}
				}
			}
			if err := m.AddDay(d); err != nil {
				return nil, err
			}
		}
		ds.Machines = append(ds.Machines, m)
	}
	return ds, nil
}

// WriteText encodes the dataset in the line-oriented text format:
//
//	fgcs-trace 1
//	machine <id> <period-seconds>
//	day <unix-seconds>
//	<cpu> <free-mem-mb> <0|1>
//	...
func WriteText(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "fgcs-trace 1")
	for _, m := range ds.Machines {
		fmt.Fprintf(bw, "machine %s %g\n", m.ID, m.Period.Seconds())
		for _, d := range m.Days {
			fmt.Fprintf(bw, "day %d\n", d.Date.Unix())
			for _, s := range d.Samples {
				up := 0
				if s.Up {
					up = 1
				}
				fmt.Fprintf(bw, "%g %g %d\n", s.CPU, s.FreeMemMB, up)
			}
		}
	}
	return bw.Flush()
}

// ReadText decodes a dataset written by WriteText.
func ReadText(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	if strings.TrimSpace(sc.Text()) != "fgcs-trace 1" {
		return nil, fmt.Errorf("trace: bad header %q", sc.Text())
	}
	ds := &Dataset{}
	var m *Machine
	var d *Day
	line := 1
	flushDay := func() error {
		if d == nil {
			return nil
		}
		if m == nil {
			return fmt.Errorf("trace: day without machine")
		}
		err := m.AddDay(d)
		d = nil
		return err
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "machine":
			if err := flushDay(); err != nil {
				return nil, err
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed machine line", line)
			}
			sec, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || sec <= 0 {
				return nil, fmt.Errorf("trace: line %d: bad period %q", line, fields[2])
			}
			period := time.Duration(sec * float64(time.Second))
			// Guard the float->Duration conversion: an absurdly large
			// period overflows int64 into garbage (possibly negative).
			if period <= 0 || sec > (292*365*24*time.Hour).Seconds() {
				return nil, fmt.Errorf("trace: line %d: period %q out of range", line, fields[2])
			}
			m = NewMachine(fields[1], period)
			ds.Machines = append(ds.Machines, m)
		case "day":
			if err := flushDay(); err != nil {
				return nil, err
			}
			if m == nil {
				return nil, fmt.Errorf("trace: line %d: day before machine", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: malformed day line", line)
			}
			unix, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad date %q", line, fields[1])
			}
			d = &Day{Date: time.Unix(unix, 0).UTC(), Period: m.Period}
		default:
			if d == nil {
				return nil, fmt.Errorf("trace: line %d: sample before day", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed sample line", line)
			}
			cpu, err1 := strconv.ParseFloat(fields[0], 64)
			mem, err2 := strconv.ParseFloat(fields[1], 64)
			up, err3 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("trace: line %d: bad sample", line)
			}
			d.Samples = append(d.Samples, Sample{CPU: cpu, FreeMemMB: mem, Up: up == 1})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flushDay(); err != nil {
		return nil, err
	}
	return ds, nil
}

// SaveFile writes the dataset to path, choosing the codec by extension:
// ".txt" for text, ".gz" for gzip-compressed binary (what the state manager
// archives — a machine-day of float32 samples compresses ~10x), anything
// else for plain binary. The file is written under path + ".tmp", synced and
// renamed into place, so a failed save leaves the previous file as it was.
func SaveFile(path string, ds *Dataset) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	switch filepath.Ext(path) {
	case ".txt":
		err = WriteText(f, ds)
	case ".gz":
		zw := gzip.NewWriter(f)
		if err = WriteBinary(zw, ds); err == nil {
			err = zw.Close()
		}
	default:
		err = WriteBinary(f, ds)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadFile reads a dataset from path, choosing the codec by extension.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch filepath.Ext(path) {
	case ".txt":
		return ReadText(f)
	case ".gz":
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip: %w", err)
		}
		defer zr.Close()
		return ReadBinary(zr)
	default:
		return ReadBinary(f)
	}
}
