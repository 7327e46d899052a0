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
	"slices"
	"sync"

	"clrdse/internal/mapping"
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
// byte values match mapping.ActionKind's iota order, so the direct
// encoder writes a kind as its byte, but they are a wire contract of
// their own: reordering this table is a version bump.
var binActionKinds = []string{"copy-binary", "load-bitstream", "set-clr", "reorder"}

// binActionLen is an action record's size: the kind byte, four u32
// fields and the cost.
const binActionLen = 1 + 4*4 + 8

func binActionKindByte(kind string) (byte, error) {
	for i, k := range binActionKinds {
		if k == kind {
			return byte(i), nil
		}
	}
	return 0, errUnknownActionKind(kind)
}

func errUnknownActionKind(kind string) error {
	return fmt.Errorf("%w: unknown action kind %q", ErrBinCodec, kind)
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
		if res.Status != 200 {
			var err error
			if dst, err = appendBinError(dst, res.Status, res.Error); err != nil {
				return nil, err
			}
			continue
		}
		d := res.Decision
		if d == nil {
			return nil, fmt.Errorf("%w: status 200 without decision", ErrBinCodec)
		}
		var err error
		dst, err = appendBinDecision(dst, &binDecisionHead{
			device: d.Device, seq: d.Seq, from: d.From, to: d.To,
			flags:  binDecisionFlags(d.Reconfigured, d.Violated, d.Degraded),
			costMs: d.CostMs, binaryMs: d.BinaryMigrationMs, bitstreamMs: d.BitstreamMs,
			migrated: d.MigratedTasks, reloaded: d.ReloadedPRRs, planLen: len(d.Plan),
		})
		if err != nil {
			return nil, err
		}
		for k := range d.Plan {
			a := &d.Plan[k]
			kb, err := binActionKindByte(a.Kind)
			if err != nil {
				return nil, err
			}
			dst = appendBinAction(dst, kb, a.Task, a.PE, a.PRR, a.Bitstream, a.CostMs)
		}
	}
	return dst, nil
}

// planScratch pools the slice the batch encoders plan each
// reconfiguration into (see DecideOutcome.plan): one per encode, reused
// outcome after outcome.
var planScratch = sync.Pool{New: func() any { return new([]mapping.Action) }}

// AppendBatchOutcomes encodes the batch response to events straight
// from the registry's outcomes (outs[i] answers events[i]): an error
// slot answers statusFor(err) with err's text, a decision carries its
// event's device and seq and the outcome's degraded flag, and a
// reconfiguration its plan — the decision's own, or planned from the
// outcome's Index into pooled scratch. The bytes are
// AppendBatchResponse's for the results the JSON path builds from the
// same outcomes, through the same per-result appenders, with no
// intermediate DecisionJSON and no kind strings.
func AppendBatchOutcomes(dst []byte, events []BatchEvent, outs []BatchOutcome) ([]byte, error) {
	if len(outs) != len(events) {
		return nil, fmt.Errorf("%w: %d outcomes for %d events", ErrBinCodec, len(outs), len(events))
	}
	scratch := planScratch.Get().(*[]mapping.Action)
	defer planScratch.Put(scratch)
	dst = appendBinHeader(dst, binKindResponse, len(outs))
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			var err error
			if dst, err = appendBinError(dst, statusFor(o.Err), o.Err.Error()); err != nil {
				return nil, err
			}
			continue
		}
		d := &o.Out.Decision
		plan := o.Out.plan(scratch)
		var err error
		dst, err = appendBinDecision(dst, &binDecisionHead{
			device: events[i].Device, seq: events[i].Seq, from: d.From, to: d.To,
			flags:  binDecisionFlags(d.Reconfigured, d.Violated, o.Out.Degraded),
			costMs: d.Cost.Total(), binaryMs: d.Cost.BinaryMigrationMs, bitstreamMs: d.Cost.BitstreamMs,
			migrated: d.Cost.MigratedTasks, reloaded: d.Cost.ReloadedPRRs, planLen: len(plan),
		})
		if err != nil {
			return nil, err
		}
		for k := range plan {
			a := &plan[k]
			if uint(a.Kind) >= uint(len(binActionKinds)) {
				return nil, errUnknownActionKind(a.Kind.String())
			}
			dst = appendBinAction(dst, byte(a.Kind), a.Task, a.PE, a.PRR, a.Bitstream, a.CostMs)
		}
	}
	return dst, nil
}

// appendBinError appends a non-200 result: its status and error text.
func appendBinError(dst []byte, status int, msg string) ([]byte, error) {
	if status < 0 || status > math.MaxUint16 {
		return nil, fmt.Errorf("%w: status %d out of range", ErrBinCodec, status)
	}
	if len(msg) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: error %d bytes long", ErrBinCodec, len(msg))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(status))
	return appendBinStr(dst, msg), nil
}

// binDecisionHead is a decision's fields in wire order, up to and
// including the plan's length: what both encoders hand
// appendBinDecision.
type binDecisionHead struct {
	device                        string
	seq                           uint64
	from, to                      int
	flags                         byte
	costMs, binaryMs, bitstreamMs float64
	migrated, reloaded, planLen   int
}

func binDecisionFlags(reconfigured, violated, degraded bool) byte {
	var flags byte
	if reconfigured {
		flags |= 1 << 0
	}
	if violated {
		flags |= 1 << 1
	}
	if degraded {
		flags |= 1 << 2
	}
	return flags
}

// appendBinDecision appends a 200 result up to its plan: the status,
// then h. The caller appends the plan's planLen action records.
func appendBinDecision(dst []byte, h *binDecisionHead) ([]byte, error) {
	if len(h.device) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: device ID %d bytes long", ErrBinCodec, len(h.device))
	}
	dst = binary.BigEndian.AppendUint16(dst, 200)
	dst = appendBinStr(dst, h.device)
	dst = binary.BigEndian.AppendUint64(dst, h.seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(h.from)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(h.to)))
	dst = append(dst, h.flags)
	dst = appendBinF64(dst, h.costMs)
	dst = appendBinF64(dst, h.binaryMs)
	dst = appendBinF64(dst, h.bitstreamMs)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(h.migrated)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(h.reloaded)))
	return binary.BigEndian.AppendUint32(dst, uint32(h.planLen)), nil
}

// appendBinAction appends one action record of binActionLen bytes.
func appendBinAction(dst []byte, kind byte, task, pe, prr, bitstream int, costMs float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, binActionLen)
	b := dst[n : n+binActionLen]
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:], uint32(int32(task)))
	binary.BigEndian.PutUint32(b[5:], uint32(int32(pe)))
	binary.BigEndian.PutUint32(b[9:], uint32(int32(prr)))
	binary.BigEndian.PutUint32(b[13:], uint32(int32(bitstream)))
	binary.BigEndian.PutUint64(b[17:], math.Float64bits(costMs))
	return dst[:n+binActionLen]
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
	if err := r.grow(int(planLen), binActionLen); err != nil {
		return nil, err
	}
	// grow has proven the plan's span, so its fixed-size records decode
	// without a bounds check per field. Size the plan once: a forged
	// length allocates at most sizeof(ActionJSON)/binActionLen (≈2.24)
	// times the body.
	span := r.data[r.off : r.off+int(planLen)*binActionLen]
	r.off += len(span)
	if cap(d.Plan) < int(planLen) {
		d.Plan = make([]ActionJSON, planLen)
	}
	plan := d.Plan[:planLen]
	for j := range plan {
		b := span[j*binActionLen : (j+1)*binActionLen]
		if int(b[0]) >= len(binActionKinds) {
			return nil, fmt.Errorf("%w: unknown action kind 0x%02x", ErrBinCodec, b[0])
		}
		plan[j] = ActionJSON{
			Kind:      binActionKinds[b[0]],
			Task:      int(int32(binary.BigEndian.Uint32(b[1:]))),
			PE:        int(int32(binary.BigEndian.Uint32(b[5:]))),
			PRR:       int(int32(binary.BigEndian.Uint32(b[9:]))),
			Bitstream: int(int32(binary.BigEndian.Uint32(b[13:]))),
			CostMs:    math.Float64frombits(binary.BigEndian.Uint64(b[17:])),
		}
	}
	d.Plan = plan
	return d, nil
}
