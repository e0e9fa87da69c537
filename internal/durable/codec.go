package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"fgcs/internal/trace"
	"fgcs/internal/wire"
)

// Record types used by the iShare components. The seal type 0xFF is
// reserved by the store.
const (
	// RecSample is one quantized, delta-encoded monitor sample.
	RecSample byte = 0x01
	// RecRegister upserts one registry entry (machine, addr, absolute
	// expiry).
	RecRegister byte = 0x02
	// RecUnregister removes one registry entry.
	RecUnregister byte = 0x03
	// RecSubmitKey logs one accepted submit: idempotency key -> job ID. An
	// empty key still advances the job-ID counter on replay.
	RecSubmitKey byte = 0x04
	// RecAccuracy is one resolved accuracy-tracker outcome.
	RecAccuracy byte = 0x05
)

// Sample quantization: CPU in 0.01% units, free memory in 1/16 MB units,
// timestamps in milliseconds. QuantizeSample is applied on the ingest path
// before a sample is either logged or fed to the state manager, so live
// state and replayed state are bit-identical — the property the crash
// harness pins with restart-and-requery QueryTR equality.
const (
	cpuUnit = 100.0 // CPU percent -> 0.01% integer units
	memUnit = 16.0  // MB -> 1/16 MB integer units
)

// QuantizeSample rounds a sample to the WAL's storage precision.
func QuantizeSample(s trace.Sample) trace.Sample {
	s.CPU = math.Round(s.CPU*cpuUnit) / cpuUnit
	s.FreeMemMB = math.Round(s.FreeMemMB*memUnit) / memUnit
	return s
}

// QuantizeTime rounds a timestamp to the WAL's millisecond precision (UTC).
func QuantizeTime(t time.Time) time.Time {
	return time.UnixMilli(t.UnixMilli()).UTC()
}

// Sample record layout: flags byte (bit0 up, bit1 absolute), then three
// zigzag uvarints — time, CPU and memory — absolute in the first record
// after a coder Reset, deltas against the previous record otherwise. At the
// paper's 6 s cadence a steady-state sample is 4-7 bytes against 25+ naive.
const (
	sampleFlagUp       = 0x01
	sampleFlagAbsolute = 0x02
)

// SampleCoder delta-encodes and decodes sample records. Encoding state
// chains across records; Reset starts a new chain (emitting an absolute
// record next), which the persistence layer does at every snapshot so a
// replay starting there never needs state from before the snapshot. The
// zero value is ready to use and starts absolute.
type SampleCoder struct {
	primed  bool
	lastMs  int64
	lastCPU int64
	lastMem int64
}

// Reset drops the delta chain: the next encoded record is absolute, and the
// next decoded record must be.
func (c *SampleCoder) Reset() { *c = SampleCoder{} }

// Encode appends the record payload for (t, s) to buf. The sample should
// already be quantized (QuantizeSample); Encode quantizes again to be safe.
func (c *SampleCoder) Encode(buf []byte, t time.Time, s trace.Sample) []byte {
	ms := t.UnixMilli()
	cpu := int64(math.Round(s.CPU * cpuUnit))
	mem := int64(math.Round(s.FreeMemMB * memUnit))
	flags := byte(0)
	if s.Up {
		flags |= sampleFlagUp
	}
	if !c.primed {
		flags |= sampleFlagAbsolute
		buf = append(buf, flags)
		buf = binary.AppendVarint(buf, ms)
		buf = binary.AppendVarint(buf, cpu)
		buf = binary.AppendVarint(buf, mem)
	} else {
		buf = append(buf, flags)
		buf = binary.AppendVarint(buf, ms-c.lastMs)
		buf = binary.AppendVarint(buf, cpu-c.lastCPU)
		buf = binary.AppendVarint(buf, mem-c.lastMem)
	}
	c.primed = true
	c.lastMs, c.lastCPU, c.lastMem = ms, cpu, mem
	return buf
}

// Decode parses one sample record payload, advancing the coder's chain
// state. A delta record with no preceding absolute record fails: it means
// replay started mid-chain, which the snapshot/Reset protocol rules out.
func (c *SampleCoder) Decode(p []byte) (time.Time, trace.Sample, error) {
	if len(p) < 1 {
		return time.Time{}, trace.Sample{}, fmt.Errorf("durable: empty sample record")
	}
	flags := p[0]
	rest := p[1:]
	var vals [3]int64
	for i := range vals {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return time.Time{}, trace.Sample{}, fmt.Errorf("durable: malformed sample record")
		}
		vals[i] = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return time.Time{}, trace.Sample{}, fmt.Errorf("durable: trailing bytes in sample record")
	}
	if flags&sampleFlagAbsolute != 0 {
		c.lastMs, c.lastCPU, c.lastMem = vals[0], vals[1], vals[2]
	} else {
		if !c.primed {
			return time.Time{}, trace.Sample{}, fmt.Errorf("durable: delta sample record without a base")
		}
		c.lastMs += vals[0]
		c.lastCPU += vals[1]
		c.lastMem += vals[2]
	}
	c.primed = true
	s := trace.Sample{
		CPU:       float64(c.lastCPU) / cpuUnit,
		FreeMemMB: float64(c.lastMem) / memUnit,
		Up:        flags&sampleFlagUp != 0,
	}
	return time.UnixMilli(c.lastMs).UTC(), s, nil
}

// EncodeRegister appends a registry-upsert payload: machine, addr and the
// absolute expiry in unix milliseconds (0 = never expires).
func EncodeRegister(buf []byte, machine, addr string, expiresUnixMs int64) []byte {
	buf = wire.AppendString(buf, machine)
	buf = wire.AppendString(buf, addr)
	return wire.AppendVarint(buf, expiresUnixMs)
}

// ReadRegister consumes one EncodeRegister payload from r. It is the body of
// a RecRegister record and the element of a registry snapshot alike.
func ReadRegister(r *wire.Reader) (machine, addr string, expiresUnixMs int64) {
	return r.String(), r.String(), r.Varint()
}

// DecodeRegister parses a RecRegister payload.
func DecodeRegister(p []byte) (machine, addr string, expiresUnixMs int64, err error) {
	r := wire.NewReader(p, "durable: register record")
	machine, addr, expiresUnixMs = ReadRegister(&r)
	return machine, addr, expiresUnixMs, r.Done()
}

// DecodeUnregister parses a RecUnregister payload: the machine name as one
// string. No binary writes the record any more (the replay of logs older
// ones wrote is its only reader), so it has no encoder.
func DecodeUnregister(p []byte) (machine string, err error) {
	r := wire.NewReader(p, "durable: unregister record")
	machine = r.String()
	return machine, r.Done()
}

// EncodeSubmitKey appends an accepted-submit payload: the idempotency key
// (may be empty) and the job ID it mapped to.
func EncodeSubmitKey(buf []byte, key, jobID string) []byte {
	return wire.AppendString(wire.AppendString(buf, key), jobID)
}

// DecodeSubmitKey parses a RecSubmitKey payload.
func DecodeSubmitKey(p []byte) (key, jobID string, err error) {
	r := wire.NewReader(p, "durable: submit-key record")
	key, jobID = r.String(), r.String()
	return key, jobID, r.Done()
}

// EncodeAccuracy appends a resolved-prediction payload: the (machine,
// predictor) key, the predicted TR (exact float64 bits, so restored tracker
// sums match the live ones bit for bit) and the observed outcome.
func EncodeAccuracy(buf []byte, machine, predictor string, tr float64, survived bool) []byte {
	buf = wire.AppendString(buf, machine)
	buf = wire.AppendString(buf, predictor)
	return wire.AppendBool(wire.AppendFloat64(buf, tr), survived)
}

// DecodeAccuracy parses a RecAccuracy payload.
func DecodeAccuracy(p []byte) (machine, predictor string, tr float64, survived bool, err error) {
	r := wire.NewReader(p, "durable: accuracy record")
	machine, predictor, tr, survived = r.String(), r.String(), r.Float64(), r.Bool()
	return machine, predictor, tr, survived, r.Done()
}
