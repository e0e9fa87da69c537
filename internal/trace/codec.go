package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The binary trace format is what a trace file (tracegen's output, ishared's
// -trace preload) holds and what a node snapshot carries: a magic header followed by machines and
// days, each day's samples encoded by a one-byte tag. The text format is a
// line-oriented human-readable equivalent used by the CLI tools.
//
//	"FGCSTRC2"  u32 machines
//	machine:    u16 id length, id, u64 period ns, u32 days
//	day:        u64 unix seconds, u32 samples, u8 tag, body
//	tag 0:      one 9-byte record per sample: float32 CPU, float32 free
//	            memory, an up byte (FGCSTRC1's day body, byte for byte)
//	tag 1:      u32 body length, then the up bitmap (bit i%8 of byte i/8),
//	            the CPU column and the memory column: per sample, the
//	            zigzag varint of its value in WAL units less the previous
//	            one's, the first against zero
//
// WriteBinary tags a day 1 (compact) when every sample is a whole number of
// WAL units that decodes back to the same float64 bits, and 0 (float32)
// otherwise. ReadBinary also reads FGCSTRC1, whose days are untagged tag-0
// bodies.
const (
	binaryMagic   = "FGCSTRC2"
	binaryMagicV1 = "FGCSTRC1"
)

// Day body tags.
const (
	dayFloat32 byte = 0
	dayCompact byte = 1
)

const (
	sampleBytes = 9    // one float32 sample record: float32 CPU, float32 free memory, an up byte
	readChunk   = 4096 // sample records ReadBinary reads and decodes at a time
	// bodyChunk is the most ReadBinary grows a compact body by before
	// the bytes behind it have arrived.
	bodyChunk = 64 << 10
)

// The WAL's units, in which a compact day stores its samples: CPU in 0.01 %,
// free memory in 1/16 MB. maxUnits bounds a compact value: every whole
// number of units up to it converts to a float64 and back exactly.
const (
	CPUUnit  = 100.0 // CPU percent -> 0.01 % integer units
	MemUnit  = 16.0  // MB -> 1/16 MB integer units
	maxUnits = 1 << 40
)

// Quantize rounds a sample to whole WAL units. A reading that rounds to
// zero from below becomes +0, the zero a unit count decodes to.
func Quantize(s Sample) Sample {
	s.CPU = math.Round(s.CPU*CPUUnit)/CPUUnit + 0
	s.FreeMemMB = math.Round(s.FreeMemMB*MemUnit)/MemUnit + 0
	return s
}

// Storable reports whether a sample can be logged: both readings within
// ±2^40 units, where a unit count converts to a float64 and back exactly
// and the WAL's deltas of unit counts cannot overflow. NaN and ±Inf are
// not.
func Storable(s Sample) bool {
	return math.Abs(s.CPU*CPUUnit) <= maxUnits && math.Abs(s.FreeMemMB*MemUnit) <= maxUnits
}

// units returns v in units of 1/unit, and whether that count decodes back
// to v's exact bits: false for -0, NaN, ±Inf and counts past maxUnits.
func units(v, unit float64) (int64, bool) {
	x := math.Floor(v*unit + 0.5)
	if !(x >= -maxUnits && x <= maxUnits) {
		return 0, false
	}
	k := int64(x)
	return k, math.Float64bits(float64(k)/unit) == math.Float64bits(v)
}

// appendDay appends a day's tag and body: compact if every sample has an
// exact form in WAL units, which it finds out by encoding the day, float32
// records if not.
func appendDay(buf []byte, samples []Sample) []byte {
	le := binary.LittleEndian
	if out, ok := appendCompact(buf, samples); ok {
		return out
	}
	buf = append(buf, dayFloat32)
	off := len(buf)
	buf = slices.Grow(buf, sampleBytes*len(samples))[:off+sampleBytes*len(samples)]
	for _, s := range samples {
		rec := buf[off : off+sampleBytes : off+sampleBytes]
		le.PutUint32(rec, math.Float32bits(float32(s.CPU)))
		le.PutUint32(rec[4:], math.Float32bits(float32(s.FreeMemMB)))
		rec[8] = 0
		if s.Up {
			rec[8] = 1
		}
		off += sampleBytes
	}
	return buf
}

// appendCompact appends a day's compact tag and body, a pass over the
// samples for each column and then the bitmap, or returns false at the
// first sample with no exact form in WAL units, buf's bytes as they were.
// It makes room for a day of one-byte deltas up front.
func appendCompact(buf []byte, samples []Sample) ([]byte, bool) {
	start := len(buf)
	bitmap := (len(samples) + 7) / 8
	buf = append(slices.Grow(buf, 5+bitmap+2*len(samples)), dayCompact, 0, 0, 0, 0)
	off := len(buf)
	buf, ok := appendColumn(buf[:off+bitmap], samples, 0)
	if ok {
		buf, ok = appendColumn(buf, samples, 1)
	}
	if !ok {
		return buf[:start], false
	}
	for i := 0; i < len(samples); i += 8 {
		var up byte
		for j, s := range samples[i:min(i+8, len(samples))] {
			if s.Up {
				up |= 1 << j
			}
		}
		buf[off+i/8] = up
	}
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(len(buf)-off))
	return buf, true
}

// appendColumn appends column col of the samples, 0 for CPU and 1 for
// memory, as zigzag varint deltas, or returns false at the first value
// with no exact form in WAL units.
func appendColumn(buf []byte, samples []Sample, col int) ([]byte, bool) {
	unit := [2]float64{CPUUnit, MemUnit}[col]
	var last int64
	for _, s := range samples {
		v := s.CPU
		if col == 1 {
			v = s.FreeMemMB
		}
		k, ok := units(v, unit)
		if !ok {
			return buf, false
		}
		buf, last = binary.AppendVarint(buf, k-last), k
	}
	return buf, true
}

// AppendDay appends d as the binary format writes a day: its date, its
// sample count, its tag and its body. It is the body of a snapshot part.
func AppendDay(buf []byte, d *Day) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Date.Unix()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Samples)))
	return appendDay(buf, d.Samples)
}

// WriteBinary encodes the dataset in the binary format, a day a Write.
func WriteBinary(w io.Writer, ds *Dataset) error {
	buf, err := encodeBinary(make([]byte, 0, 64), ds, func(day []byte) error {
		_, err := w.Write(day)
		return err
	})
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// AppendBinary appends the dataset in the binary format to buf.
func AppendBinary(buf []byte, ds *Dataset) ([]byte, error) {
	return encodeBinary(buf, ds, nil)
}

// encodeBinary appends ds to buf, handing what buf holds to flush after
// each day and starting it again empty (nil: buf takes everything).
func encodeBinary(buf []byte, ds *Dataset, flush func([]byte) error) ([]byte, error) {
	le := binary.LittleEndian
	buf = append(buf, binaryMagic...)
	buf = le.AppendUint32(buf, uint32(len(ds.Machines)))
	for _, m := range ds.Machines {
		if len(m.ID) > math.MaxUint16 {
			return buf, fmt.Errorf("trace: machine id too long")
		}
		buf = le.AppendUint16(buf, uint16(len(m.ID)))
		buf = append(buf, m.ID...)
		buf = le.AppendUint64(buf, uint64(m.Period.Nanoseconds()))
		buf = le.AppendUint32(buf, uint32(len(m.Days)))
		for _, d := range m.Days {
			buf = AppendDay(buf, d)
			if flush != nil {
				if err := flush(buf); err != nil {
					return buf, err
				}
				buf = buf[:0]
			}
		}
	}
	return buf, nil
}

// ReadBinary decodes a dataset written by WriteBinary, in either format
// version. It refuses a sample that is NaN or infinite.
func ReadBinary(r io.Reader) (*Dataset, error) {
	var dec Decoder
	return dec.ReadBinary(r)
}

// Decoder reads the binary format through scratch it keeps from one call to
// the next: what reads many days through one Decoder, a dataset and then
// single days, grows its buffers once. The zero value is ready to use.
type Decoder struct {
	br    *bufio.Reader
	field [12]byte // the fixed-width header fields
	// chunk takes sample records or a compact body.
	chunk []byte
}

// ReadBinary is the package's ReadBinary on d's scratch.
func (dec *Decoder) ReadBinary(r io.Reader) (*Dataset, error) {
	if dec.br == nil {
		dec.br = new(bufio.Reader) // NewReader could hand back r itself
	}
	dec.br.Reset(r)
	br, field := dec.br, dec.field[:]
	defer br.Reset(nil) // keep no reference to r
	le := binary.LittleEndian
	magic := field[:len(binaryMagic)]
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	tagged := string(magic) == binaryMagic
	if !tagged && string(magic) != binaryMagicV1 {
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
			d, err := dec.readDay(br, m, tagged)
			if err != nil {
				return nil, err
			}
			if err := m.AddDay(d); err != nil {
				return nil, err
			}
		}
		ds.Machines = append(ds.Machines, m)
	}
	return ds, nil
}

// ReadDay reads one day of m as AppendDay wrote it from r, which it reads
// no further; it does not add the day to m.
func (dec *Decoder) ReadDay(r io.Reader, m *Machine) (*Day, error) {
	return dec.readDay(r, m, true)
}

// readDay reads one day of m: its date, sample count, tag (untagged days,
// FGCSTRC1's, are float32) and body.
func (dec *Decoder) readDay(r io.Reader, m *Machine, tagged bool) (*Day, error) {
	le := binary.LittleEndian
	field := dec.field[:]
	if _, err := io.ReadFull(r, field[:12]); err != nil {
		return nil, err
	}
	unix, ns := int64(le.Uint64(field)), le.Uint32(field[8:])
	if plausible := 7 * 24 * time.Hour / m.Period; plausible < math.MaxUint32 && ns > uint32(plausible) {
		return nil, fmt.Errorf("trace: implausible sample count %d", ns)
	}
	d := &Day{Date: time.Unix(unix, 0).UTC(), Period: m.Period, Samples: []Sample{}}
	tag := dayFloat32
	if tagged {
		if _, err := io.ReadFull(r, field[:1]); err != nil {
			return nil, err
		}
		tag = field[0]
	}
	var err error
	switch tag {
	case dayFloat32:
		dec.chunk, err = readFloat32Day(r, m.ID, d, int(ns), dec.chunk)
	case dayCompact:
		if _, err := io.ReadFull(r, field[:4]); err != nil {
			return nil, err
		}
		dec.chunk, err = readCompactDay(r, m.ID, d, int(ns), int(le.Uint32(field)), dec.chunk)
	default:
		err = fmt.Errorf("trace: machine %q day %s: unknown encoding %d", m.ID, d.Date.Format(time.DateOnly), tag)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// expMask is a float32's exponent field, all ones only for NaN and ±Inf.
const expMask = 0x7f800000

// readFloat32Day reads n float32 records into d. The sample slice grows as
// records arrive rather than by the declared count: a corrupt or hostile
// header must not be able to demand an allocation before its first records
// are there, nor a multi-gigabyte one after.
func readFloat32Day(r io.Reader, id string, d *Day, n int, chunk []byte) ([]byte, error) {
	le := binary.LittleEndian
	capHint := min(n, 1<<16)
	for left := n; left > 0; {
		k := min(left, readChunk)
		left -= k
		chunk = slices.Grow(chunk[:0], k*sampleBytes)[:k*sampleBytes]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return chunk, err
		}
		// The records are here, so the slice may grow by them: the first
		// ones buy the declared capacity.
		if cap(d.Samples) == 0 {
			d.Samples = make([]Sample, 0, capHint)
		}
		at := len(d.Samples)
		d.Samples = slices.Grow(d.Samples, k)[:at+k]
		for i, out := 0, d.Samples[at:]; i < k; i++ {
			rec := chunk[i*sampleBytes : (i+1)*sampleBytes : (i+1)*sampleBytes]
			cpu, mem := le.Uint32(rec), le.Uint32(rec[4:])
			if cpu&expMask == expMask || mem&expMask == expMask {
				return chunk, sampleError(id, d, at+i, "not finite")
			}
			out[i] = Sample{
				CPU:       float64(math.Float32frombits(cpu)),
				FreeMemMB: float64(math.Float32frombits(mem)),
				Up:        rec[8] != 0,
			}
		}
	}
	return chunk, nil
}

// readCompactDay reads a compact body of size bytes holding n samples into
// d. The body is read into the scratch as its bytes arrive, and the samples
// are allocated only once it is whole: every sample has cost at least two
// bytes by then.
func readCompactDay(r io.Reader, id string, d *Day, n, size int, body []byte) ([]byte, error) {
	bitmap := (n + 7) / 8
	if size < bitmap+2*n || size > bitmap+2*binary.MaxVarintLen64*n {
		return body, fmt.Errorf("trace: machine %q day %s: a compact body of %d bytes for %d samples",
			id, d.Date.Format(time.DateOnly), size, n)
	}
	body = body[:0]
	for len(body) < size {
		at := len(body)
		step := min(size-at, bodyChunk)
		body = slices.Grow(body, step)[:at+step]
		if _, err := io.ReadFull(r, body[at:]); err != nil {
			return body, err
		}
	}
	if n%8 != 0 && body[bitmap-1]>>(n%8) != 0 {
		return body, sampleError(id, d, n, "up bit past the last sample")
	}
	// Every varint ends in the one of its bytes below 0x80, so the CPU
	// column ends after the n-th such byte, and the columns decode side by
	// side, each sample written once.
	cpuEnd := columnEnd(body[bitmap:], n)
	if cpuEnd < 0 {
		return body, fmt.Errorf("trace: machine %q day %s: a CPU column of fewer than %d values",
			id, d.Date.Format(time.DateOnly), n)
	}
	cpuCol, memCol := body[bitmap:bitmap+cpuEnd], body[bitmap+cpuEnd:]
	d.Samples = make([]Sample, n)
	var cpu, mem int64
	for i := 0; i < n; i++ {
		// The loop most samples take makes no call, which would spill its
		// registers every sample: it leaves varints of four bytes or more,
		// the last three bytes of a column and whatever it cannot decode
		// to the step after it, which says what is wrong.
		for ; i < n && len(cpuCol) >= 4 && len(memCol) >= 4; i++ {
			dc, wc := shortDelta(binary.LittleEndian.Uint32(cpuCol))
			dm, wm := shortDelta(binary.LittleEndian.Uint32(memCol))
			c, m := cpu+dc, mem+dm
			if wc == 0 || wm == 0 || c < 0 || c > maxUnits || m < 0 || m > maxUnits {
				break
			}
			cpuCol, memCol, cpu, mem = cpuCol[wc:], memCol[wm:], c, m
			d.Samples[i] = Sample{CPU: float64(cpu) / CPUUnit, FreeMemMB: float64(mem) / MemUnit, Up: body[i/8]>>(i%8)&1 != 0}
		}
		if i == n {
			break
		}
		dc, wc := readDelta(cpuCol)
		dm, wm := readDelta(memCol)
		if wc == 0 || wm == 0 {
			return body, sampleError(id, d, i, "malformed varint")
		}
		cpuCol, memCol = cpuCol[wc:], memCol[wm:]
		// A wrapped sum lands far outside the range, never inside it.
		cpu, mem = cpu+dc, mem+dm
		if cpu < -maxUnits || cpu > maxUnits || mem < -maxUnits || mem > maxUnits {
			return body, sampleError(id, d, i, "out of range")
		}
		d.Samples[i] = Sample{CPU: float64(cpu) / CPUUnit, FreeMemMB: float64(mem) / MemUnit, Up: body[i/8]>>(i%8)&1 != 0}
	}
	if len(memCol) != 0 {
		return body, fmt.Errorf("trace: machine %q day %s: %d bytes after the last sample",
			id, d.Date.Format(time.DateOnly), len(memCol))
	}
	return body, nil
}

// columnEnd returns the length of the shortest prefix of p holding n bytes
// below 0x80, or -1 when p holds fewer.
func columnEnd(p []byte, n int) int {
	if n == 0 {
		return 0
	}
	at := 0
	for ; at+8 <= len(p); at += 8 {
		ends := bits.OnesCount64(^binary.LittleEndian.Uint64(p[at:]) & 0x8080808080808080)
		if ends >= n {
			break
		}
		n -= ends
	}
	for ; at < len(p); at++ {
		if p[at] < 0x80 {
			if n--; n == 0 {
				return at + 1
			}
		}
	}
	if n == 0 {
		return at
	}
	return -1
}

// readDelta decodes the zigzag varint p starts with and returns it with its
// length, or a length of 0 when it is malformed or longer than it needs to
// be.
func readDelta(p []byte) (int64, int) {
	if len(p) >= 4 {
		if x, l := shortDelta(binary.LittleEndian.Uint32(p)); l > 0 {
			return x, l
		}
	}
	return readLong(p)
}

// shortVarints[c], for the continuation bits c of a word's first three
// bytes (bit j set when byte j has its top bit set), is the length of the
// varint the word starts with, the mask of its value bits, and the least
// value a varint of that length holds when it is no longer than it needs
// to be; c = 7 starts a varint of four bytes or more, which no value is
// least enough for.
var shortVarints = [8]struct {
	len       int
	mask, min uint32
}{
	0: {1, 0x7f, 0}, 2: {1, 0x7f, 0}, 4: {1, 0x7f, 0}, 6: {1, 0x7f, 0},
	1: {2, 0x3fff, 1 << 7}, 5: {2, 0x3fff, 1 << 7},
	3: {3, 0x1fffff, 1 << 14},
	7: {0, 0, math.MaxUint32},
}

// shortDelta decodes a zigzag varint of at most three bytes from the
// little-endian word w that starts with it, by table rather than a branch
// on its bytes, and returns it with its length: 0 when the varint is
// longer, or longer than it needs to be.
func shortDelta(w uint32) (int64, int) {
	v := shortVarints[w>>7&1|w>>14&2|w>>21&4]
	ux := (w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000) & v.mask
	if ux < v.min {
		return 0, 0
	}
	return int64(ux>>1) ^ -int64(ux&1), v.len
}

// readLong is readDelta for a varint of four bytes or more, one at the end
// of the body, and one that is malformed or overlong.
func readLong(p []byte) (int64, int) {
	x, n := binary.Varint(p)
	var shortest [binary.MaxVarintLen64]byte
	if n <= 0 || n != binary.PutVarint(shortest[:], x) {
		return 0, 0
	}
	return x, n
}

// sampleError names the sample of a day a decoder refuses.
func sampleError(id string, d *Day, i int, what string) error {
	return fmt.Errorf("trace: machine %q day %s sample %d: %s", id, d.Date.Format(time.DateOnly), i, what)
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

// ReadText decodes a dataset written by WriteText. It refuses a sample that
// is NaN or infinite.
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
			if math.IsNaN(cpu) || math.IsInf(cpu, 0) || math.IsNaN(mem) || math.IsInf(mem, 0) {
				return nil, fmt.Errorf("trace: line %d: %w", line, sampleError(m.ID, d, len(d.Samples), "not finite"))
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
// ".txt" for text, ".gz" for gzip-compressed binary, anything else for plain
// binary. The file is written under path + ".tmp", synced and renamed into
// place, so a failed save leaves the previous file as it was.
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
