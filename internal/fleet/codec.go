package fleet

// Compact binary codec for the batch decide endpoint
// (Content-Type: application/x-clr-bin). The JSON v1 wire stays the
// contract of record — this encoding carries the exact same batch
// structs, length-prefixed and versioned, for callers that cannot
// afford JSON on the hot path.
//
// Framing (all integers big-endian):
//
//	header   = magic "CLRB" | version u8 (=1) | kind u8 | count u32
//	kind     = 0x01 request | 0x02 response
//	request  = header | count × event
//	event    = str device | u64 seq | f64 s_max_ms | f64 f_min
//	response = header | count × result
//	result   = u16 status
//	           status == 200 → decision
//	           else          → str error
//	decision = str device | u64 seq | u32 from | u32 to | u8 flags
//	           | f64 cost_ms | f64 binary_migration_ms | f64 bitstream_ms
//	           | u32 migrated_tasks | u32 reloaded_prrs
//	           | u32 plan_len | plan_len × action
//	flags    = bit0 reconfigured | bit1 violated | bit2 degraded
//	action   = u8 kind | u32 task | u32 pe | u32 prr | u32 bitstream
//	           | f64 cost_ms
//	str      = u16 len | len bytes (UTF-8, not NUL-terminated)
//
// Signed ints (from/to, action fields — -1 is a valid sentinel) ride
// as two's-complement u32; floats as IEEE-754 bits, so every value
// round-trips exactly. The encoding is canonical: a byte stream either
// fails to decode or re-encodes to the identical bytes (decoders
// reject trailing data, unknown versions/kinds/statuses/action kinds,
// and length prefixes that overrun the buffer) — the property
// FuzzBinaryCodec locks in. Version bumps on any layout change.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

const (
	// binVersion is the codec version byte; bump on any layout change.
	binVersion = 1

	binKindRequest  = 0x01
	binKindResponse = 0x02

	// BinContentType is the batch endpoint's binary media type.
	BinContentType = "application/x-clr-bin"
)

var binMagic = [4]byte{'C', 'L', 'R', 'B'}

// ErrBinCodec tags every decode failure of the binary batch codec.
var ErrBinCodec = errors.New("clr-bin codec")

// binActionKinds maps the action-kind byte to ActionJSON.Kind. The
// byte values match mapping.ActionKind's iota order but are a wire
// contract of their own: reordering this table is a version bump.
var binActionKinds = []string{"copy-binary", "load-bitstream", "set-clr", "reorder"}

func binActionKindByte(kind string) (byte, error) {
	for i, k := range binActionKinds {
		if k == kind {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown action kind %q", ErrBinCodec, kind)
}

func appendBinHeader(dst []byte, kind byte, count int) []byte {
	dst = append(dst, binMagic[:]...)
	dst = append(dst, binVersion, kind)
	return binary.BigEndian.AppendUint32(dst, uint32(count))
}

func appendBinStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendBinF64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendBatchRequest encodes a batch request onto dst (pooled callers
// pass dst[:0] to reuse the buffer). It fails only on values the
// framing cannot carry (device IDs over 64 KiB).
func AppendBatchRequest(dst []byte, events []BatchEventJSON) ([]byte, error) {
	dst = appendBinHeader(dst, binKindRequest, len(events))
	for i := range events {
		if len(events[i].Device) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: device ID %d bytes long", ErrBinCodec, len(events[i].Device))
		}
		dst = appendBinStr(dst, events[i].Device)
		dst = binary.BigEndian.AppendUint64(dst, events[i].Seq)
		dst = appendBinF64(dst, events[i].SMaxMs)
		dst = appendBinF64(dst, events[i].FMin)
	}
	return dst, nil
}

// AppendBatchResponse encodes a batch response onto dst.
func AppendBatchResponse(dst []byte, results []BatchResultJSON) ([]byte, error) {
	dst = appendBinHeader(dst, binKindResponse, len(results))
	for i := range results {
		res := &results[i]
		if res.Status < 0 || res.Status > math.MaxUint16 {
			return nil, fmt.Errorf("%w: status %d out of range", ErrBinCodec, res.Status)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(res.Status))
		if res.Status == 200 {
			if res.Decision == nil {
				return nil, fmt.Errorf("%w: status 200 without decision", ErrBinCodec)
			}
			var err error
			if dst, err = appendBinDecision(dst, res.Decision); err != nil {
				return nil, err
			}
			continue
		}
		if len(res.Error) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: error %d bytes long", ErrBinCodec, len(res.Error))
		}
		dst = appendBinStr(dst, res.Error)
	}
	return dst, nil
}

func appendBinDecision(dst []byte, d *DecisionJSON) ([]byte, error) {
	if len(d.Device) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: device ID %d bytes long", ErrBinCodec, len(d.Device))
	}
	dst = appendBinStr(dst, d.Device)
	dst = binary.BigEndian.AppendUint64(dst, d.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(d.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(d.To)))
	var flags byte
	if d.Reconfigured {
		flags |= 1 << 0
	}
	if d.Violated {
		flags |= 1 << 1
	}
	if d.Degraded {
		flags |= 1 << 2
	}
	dst = append(dst, flags)
	dst = appendBinF64(dst, d.CostMs)
	dst = appendBinF64(dst, d.BinaryMigrationMs)
	dst = appendBinF64(dst, d.BitstreamMs)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(d.MigratedTasks)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(d.ReloadedPRRs)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(d.Plan)))
	for _, a := range d.Plan {
		kb, err := binActionKindByte(a.Kind)
		if err != nil {
			return nil, err
		}
		dst = append(dst, kb)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(a.Task)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(a.PE)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(a.PRR)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(a.Bitstream)))
		dst = appendBinF64(dst, a.CostMs)
	}
	return dst, nil
}

// binReader walks an untrusted buffer with bounds checks; every read
// fails cleanly at the end of input (fuzz contract: never panic).
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBinCodec, r.off)
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *binReader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBinCodec, r.off)
	}
	v := binary.BigEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *binReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBinCodec, r.off)
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *binReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBinCodec, r.off)
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *binReader) f64() (float64, error) {
	bits, err := r.u64()
	return math.Float64frombits(bits), err
}

func (r *binReader) str() (string, error) { return r.strPrev("") }

// strPrev is str reusing prev's allocation when the bytes match: on a
// steady decode stream into pooled targets the IDs repeat, and the
// comparison below is alloc-free (the compiler elides the conversion).
func (r *binReader) strPrev(prev string) (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.remaining() < int(n) {
		return "", fmt.Errorf("%w: string of %d bytes overruns input at byte %d", ErrBinCodec, n, r.off)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	if string(b) == prev {
		return prev, nil
	}
	return string(b), nil
}

// header validates the magic/version/kind prologue and returns count.
func (r *binReader) header(wantKind byte) (int, error) {
	if r.remaining() < len(binMagic) || [4]byte(r.data[r.off:r.off+4]) != binMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBinCodec)
	}
	r.off += len(binMagic)
	v, err := r.u8()
	if err != nil {
		return 0, err
	}
	if v != binVersion {
		return 0, fmt.Errorf("%w: version %d (want %d)", ErrBinCodec, v, binVersion)
	}
	k, err := r.u8()
	if err != nil {
		return 0, err
	}
	if k != wantKind {
		return 0, fmt.Errorf("%w: kind 0x%02x (want 0x%02x)", ErrBinCodec, k, wantKind)
	}
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// trailing rejects bytes past the last decoded value — required for
// the codec's canonical-bytes property.
func (r *binReader) trailing() error {
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinCodec, r.remaining())
	}
	return nil
}

// grow allocates count result slots, but only once the buffer has
// proven it holds at least minPer bytes per slot — a forged count
// cannot make the decoder allocate more than the input's own size.
func (r *binReader) grow(count, minPer int) error {
	if count < 0 || r.remaining() < count*minPer {
		return fmt.Errorf("%w: count %d overruns %d-byte input", ErrBinCodec, count, len(r.data))
	}
	return nil
}

// DecodeBatchRequest decodes a binary batch request, appending onto
// dst (pooled callers pass dst[:0] — device IDs matching the recycled
// slots are reused instead of re-allocated). Arbitrary input never
// panics; trailing bytes are rejected.
func DecodeBatchRequest(data []byte, dst []BatchEventJSON) ([]BatchEventJSON, error) {
	r := &binReader{data: data}
	count, err := r.header(binKindRequest)
	if err != nil {
		return nil, err
	}
	const minEvent = 2 + 8 + 8 + 8 // empty device + seq + two floats
	if err := r.grow(count, minEvent); err != nil {
		return nil, err
	}
	spare := dst[len(dst):cap(dst)] // recycled slots from a previous decode
	for i := 0; i < count; i++ {
		var ev BatchEventJSON
		var prev string
		if i < len(spare) {
			prev = spare[i].Device
		}
		if ev.Device, err = r.strPrev(prev); err != nil {
			return nil, err
		}
		if ev.Seq, err = r.u64(); err != nil {
			return nil, err
		}
		if ev.SMaxMs, err = r.f64(); err != nil {
			return nil, err
		}
		if ev.FMin, err = r.f64(); err != nil {
			return nil, err
		}
		dst = append(dst, ev)
	}
	if err := r.trailing(); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeBatchResponse decodes a binary batch response, appending onto
// dst. Arbitrary input never panics; trailing bytes are rejected.
//
// Pooled callers pass dst[:0]: decision structs (and their plan
// backing arrays) sitting in the recycled capacity are reused and
// fully reset, so a steady decode stream stops allocating — which
// also means results from an earlier decode must not be retained
// across a decode into the same backing array.
func DecodeBatchResponse(data []byte, dst []BatchResultJSON) ([]BatchResultJSON, error) {
	r := &binReader{data: data}
	count, err := r.header(binKindResponse)
	if err != nil {
		return nil, err
	}
	const minResult = 2 + 2 // status + empty error string
	if err := r.grow(count, minResult); err != nil {
		return nil, err
	}
	spare := dst[len(dst):cap(dst)] // recycled slots from a previous decode
	for i := 0; i < count; i++ {
		var res BatchResultJSON
		st, err := r.u16()
		if err != nil {
			return nil, err
		}
		res.Status = int(st)
		if res.Status == 200 {
			// The append below lands exactly on spare[i], so its old
			// decision is read here and never observable afterwards.
			var recycled *DecisionJSON
			if i < len(spare) {
				recycled = spare[i].Decision
			}
			if res.Decision, err = r.decision(recycled); err != nil {
				return nil, err
			}
		} else {
			if res.Error, err = r.str(); err != nil {
				return nil, err
			}
		}
		dst = append(dst, res)
	}
	if err := r.trailing(); err != nil {
		return nil, err
	}
	return dst, nil
}

// decision decodes one decision, into d when non-nil (every field is
// overwritten and the plan backing array is reused).
func (r *binReader) decision(d *DecisionJSON) (*DecisionJSON, error) {
	var prevDev string
	if d == nil {
		d = &DecisionJSON{}
	} else {
		prevDev = d.Device
		*d = DecisionJSON{Plan: d.Plan[:0]}
	}
	var err error
	if d.Device, err = r.strPrev(prevDev); err != nil {
		return nil, err
	}
	if d.Seq, err = r.u64(); err != nil {
		return nil, err
	}
	from, err := r.u32()
	if err != nil {
		return nil, err
	}
	to, err := r.u32()
	if err != nil {
		return nil, err
	}
	d.From, d.To = int(int32(from)), int(int32(to))
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^(1<<0|1<<1|1<<2) != 0 {
		return nil, fmt.Errorf("%w: unknown decision flags 0x%02x", ErrBinCodec, flags)
	}
	d.Reconfigured = flags&(1<<0) != 0
	d.Violated = flags&(1<<1) != 0
	d.Degraded = flags&(1<<2) != 0
	if d.CostMs, err = r.f64(); err != nil {
		return nil, err
	}
	if d.BinaryMigrationMs, err = r.f64(); err != nil {
		return nil, err
	}
	if d.BitstreamMs, err = r.f64(); err != nil {
		return nil, err
	}
	mt, err := r.u32()
	if err != nil {
		return nil, err
	}
	rp, err := r.u32()
	if err != nil {
		return nil, err
	}
	d.MigratedTasks, d.ReloadedPRRs = int(int32(mt)), int(int32(rp))
	planLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	const minAction = 1 + 4*4 + 8
	if err := r.grow(int(planLen), minAction); err != nil {
		return nil, err
	}
	// Size the plan once: grow has bounded planLen by the bytes left, so
	// even a forged length allocates at most sizeof(ActionJSON)/minAction
	// (≈2.24) times the body.
	if cap(d.Plan) < int(planLen) {
		d.Plan = make([]ActionJSON, 0, planLen)
	}
	for j := 0; j < int(planLen); j++ {
		var a ActionJSON
		kb, err := r.u8()
		if err != nil {
			return nil, err
		}
		if int(kb) >= len(binActionKinds) {
			return nil, fmt.Errorf("%w: unknown action kind 0x%02x", ErrBinCodec, kb)
		}
		a.Kind = binActionKinds[kb]
		task, err := r.u32()
		if err != nil {
			return nil, err
		}
		pe, err := r.u32()
		if err != nil {
			return nil, err
		}
		prr, err := r.u32()
		if err != nil {
			return nil, err
		}
		bs, err := r.u32()
		if err != nil {
			return nil, err
		}
		a.Task, a.PE, a.PRR, a.Bitstream = int(int32(task)), int(int32(pe)), int(int32(prr)), int(int32(bs))
		if a.CostMs, err = r.f64(); err != nil {
			return nil, err
		}
		d.Plan = append(d.Plan, a)
	}
	return d, nil
}
