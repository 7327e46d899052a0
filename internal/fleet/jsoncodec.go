package fleet

// Hand-written JSON codec for the single-event decide exchange,
// POST /v1/devices/{id}/qos: a QoSRequest in, a DecisionJSON out.
// Moving a reconfiguration plan through reflection cost the service
// several times what deciding it did (DESIGN.md §10), so both ends of
// that one endpoint use this codec; every other body stays on
// encoding/json.
//
// The appenders write exactly the bytes encoding/json writes for the
// same value: its field order and omitempty, HTML-escaped strings,
// its float format (ES6 exponent cut-offs, "e-07" cleaned to "e-7")
// and, for a decision, the Encoder's trailing newline. NaN and ±Inf
// fail with encoding/json's own error.
//
// The decoders recognise only the canonical form the appenders write:
// one object, keys in any order, each known key at most once, absent
// keys left zero, and at most one trailing newline. No whitespace,
// escapes, null, duplicate or unknown keys. A number must match the
// JSON grammar and is then parsed with strconv as encoding/json parses
// it. Any other input goes, from a zeroed target, to the encoding/json
// path the endpoint ran before, so every body decodes as it always
// did, by construction. FuzzDecisionJSON and FuzzQoSRequestJSON pin
// both halves against encoding/json.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendQoSRequest appends json.Marshal(q)'s bytes to dst.
func AppendQoSRequest(dst []byte, q QoSRequest) ([]byte, error) {
	if err := finite(q.SMaxMs); err != nil {
		return dst, err
	}
	if err := finite(q.FMin); err != nil {
		return dst, err
	}
	dst = append(dst, `{"s_max_ms":`...)
	dst = appendJSONFloat(dst, q.SMaxMs)
	dst = append(dst, `,"f_min":`...)
	dst = appendJSONFloat(dst, q.FMin)
	if q.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, q.Seq, 10)
	}
	return append(dst, '}'), nil
}

// AppendDecision appends the bytes json.NewEncoder(w).Encode(d)
// writes, trailing newline included. On error dst is returned
// unchanged.
func AppendDecision(dst []byte, d *DecisionJSON) ([]byte, error) {
	// encoding/json reports the first non-finite float in field order.
	for _, f := range [...]float64{d.CostMs, d.BinaryMigrationMs, d.BitstreamMs} {
		if err := finite(f); err != nil {
			return dst, err
		}
	}
	for i := range d.Plan {
		if err := finite(d.Plan[i].CostMs); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `{"device":`...)
	dst = appendJSONString(dst, d.Device)
	if d.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, d.Seq, 10)
	}
	dst = append(dst, `,"from":`...)
	dst = strconv.AppendInt(dst, int64(d.From), 10)
	dst = append(dst, `,"to":`...)
	dst = strconv.AppendInt(dst, int64(d.To), 10)
	dst = append(dst, `,"reconfigured":`...)
	dst = strconv.AppendBool(dst, d.Reconfigured)
	dst = append(dst, `,"violated":`...)
	dst = strconv.AppendBool(dst, d.Violated)
	if d.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"cost_ms":`...)
	dst = appendJSONFloat(dst, d.CostMs)
	dst = append(dst, `,"binary_migration_ms":`...)
	dst = appendJSONFloat(dst, d.BinaryMigrationMs)
	dst = append(dst, `,"bitstream_ms":`...)
	dst = appendJSONFloat(dst, d.BitstreamMs)
	dst = append(dst, `,"migrated_tasks":`...)
	dst = strconv.AppendInt(dst, int64(d.MigratedTasks), 10)
	dst = append(dst, `,"reloaded_prrs":`...)
	dst = strconv.AppendInt(dst, int64(d.ReloadedPRRs), 10)
	if len(d.Plan) > 0 {
		dst = append(dst, `,"plan":[`...)
		for i := range d.Plan {
			a := &d.Plan[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"kind":`...)
			dst = appendJSONString(dst, a.Kind)
			dst = append(dst, `,"task":`...)
			dst = strconv.AppendInt(dst, int64(a.Task), 10)
			dst = append(dst, `,"pe":`...)
			dst = strconv.AppendInt(dst, int64(a.PE), 10)
			dst = append(dst, `,"prr":`...)
			dst = strconv.AppendInt(dst, int64(a.PRR), 10)
			dst = append(dst, `,"bitstream":`...)
			dst = strconv.AppendInt(dst, int64(a.Bitstream), 10)
			dst = append(dst, `,"cost_ms":`...)
			dst = appendJSONFloat(dst, a.CostMs)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// finite returns the error encoding/json gives a NaN or infinite
// float64.
func finite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// appendJSONFloat is encoding/json's float64 format for a finite f.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString is encoding/json's string encoding with HTML
// escaping on: <, > and & become \u003c, \u003e and \u0026, invalid
// UTF-8 becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeQoSRequest decodes a QoS request body into q exactly as the
// server's strict decodeJSON does: unknown fields and trailing data
// are errors. q is zeroed first.
func DecodeQoSRequest(data []byte, q *QoSRequest) error {
	*q = QoSRequest{}
	if decodeQoSRequestCanonical(data, q) {
		return nil
	}
	*q = QoSRequest{}
	return decodeJSON(bytes.NewReader(data), q)
}

// DecodeDecision decodes a QoS answer into d exactly as json.Unmarshal
// into a zeroed *d does. The result shares no memory with data: the
// device string is copied, action kinds are the interned
// binActionKinds, and the plan is allocated once.
func DecodeDecision(data []byte, d *DecisionJSON) error {
	*d = DecisionJSON{}
	if decodeDecisionCanonical(data, d) {
		return nil
	}
	*d = DecisionJSON{}
	return json.Unmarshal(data, d)
}

// decodeDecisionCanonical decodes the canonical form into a zeroed d
// and reports whether data was in it. Each key's bit in seen rejects
// duplicates.
func decodeDecisionCanonical(data []byte, d *DecisionJSON) bool {
	s := jsonScan{b: data}
	if !s.take('{') {
		return false
	}
	var seen uint16
	for in := !s.take('}'); in; in = s.more('}') {
		key, ok := s.key()
		if !ok {
			return false
		}
		var bit uint16
		switch string(key) {
		case "device":
			bit = 1 << 0
			var v []byte
			if v, ok = s.str(); ok {
				d.Device = string(v)
			}
		case "seq":
			bit = 1 << 1
			d.Seq, ok = s.uint()
		case "from":
			bit = 1 << 2
			d.From, ok = s.int()
		case "to":
			bit = 1 << 3
			d.To, ok = s.int()
		case "reconfigured":
			bit = 1 << 4
			d.Reconfigured, ok = s.bool()
		case "violated":
			bit = 1 << 5
			d.Violated, ok = s.bool()
		case "degraded":
			bit = 1 << 6
			d.Degraded, ok = s.bool()
		case "cost_ms":
			bit = 1 << 7
			d.CostMs, ok = s.float()
		case "binary_migration_ms":
			bit = 1 << 8
			d.BinaryMigrationMs, ok = s.float()
		case "bitstream_ms":
			bit = 1 << 9
			d.BitstreamMs, ok = s.float()
		case "migrated_tasks":
			bit = 1 << 10
			d.MigratedTasks, ok = s.int()
		case "reloaded_prrs":
			bit = 1 << 11
			d.ReloadedPRRs, ok = s.int()
		case "plan":
			bit = 1 << 12
			d.Plan, ok = s.plan()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return s.end()
}

// plan reads an array of actions into a slice allocated once: a
// canonical action holds no ']' and opens with the only '{' it holds,
// so the '{' count up to the first ']' bounds the action count.
func (s *jsonScan) plan() ([]ActionJSON, bool) {
	if !s.take('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	plan := make([]ActionJSON, 0, bytes.Count(s.b[s.i:s.i+end], []byte{'{'}))
	for in := !s.take(']'); in; in = s.more(']') {
		if len(plan) == cap(plan) {
			return nil, false
		}
		plan = plan[:len(plan)+1]
		if !s.action(&plan[len(plan)-1]) {
			return nil, false
		}
	}
	return plan, !s.bad
}

func (s *jsonScan) action(a *ActionJSON) bool {
	if !s.take('{') {
		return false
	}
	var seen uint8
	for in := !s.take('}'); in; in = s.more('}') {
		key, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(key) {
		case "kind":
			bit = 1 << 0
			a.Kind, ok = s.kind()
		case "task":
			bit = 1 << 1
			a.Task, ok = s.int()
		case "pe":
			bit = 1 << 2
			a.PE, ok = s.int()
		case "prr":
			bit = 1 << 3
			a.PRR, ok = s.int()
		case "bitstream":
			bit = 1 << 4
			a.Bitstream, ok = s.int()
		case "cost_ms":
			bit = 1 << 5
			a.CostMs, ok = s.float()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return !s.bad
}

// decodeQoSRequestCanonical is decodeDecisionCanonical for a request.
func decodeQoSRequestCanonical(data []byte, q *QoSRequest) bool {
	s := jsonScan{b: data}
	if !s.take('{') {
		return false
	}
	var seen uint8
	for in := !s.take('}'); in; in = s.more('}') {
		key, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(key) {
		case "s_max_ms":
			bit = 1 << 0
			q.SMaxMs, ok = s.float()
		case "f_min":
			bit = 1 << 1
			q.FMin, ok = s.float()
		case "seq":
			bit = 1 << 2
			q.Seq, ok = s.uint()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return s.end()
}

// jsonScan walks one body in the canonical form. A method that meets
// a byte outside it reports false (or sets bad); the caller then falls
// back to encoding/json.
type jsonScan struct {
	b   []byte
	i   int
	bad bool
}

// take consumes c if it is the next byte.
func (s *jsonScan) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// more reports whether another element follows in a container closed
// by closer: true after a ',', false after closer, and false with bad
// set on anything else.
func (s *jsonScan) more(closer byte) bool {
	if s.take(',') {
		return true
	}
	if !s.take(closer) {
		s.bad = true
	}
	return false
}

// end reports whether the top-level object closed cleanly and only an
// optional trailing newline follows it.
func (s *jsonScan) end() bool {
	if s.bad {
		return false
	}
	rest := s.b[s.i:]
	return len(rest) == 0 || len(rest) == 1 && rest[0] == '\n'
}

// key reads `"name":` and returns name, aliasing the input. A key
// with an escape never equals a known name, so it needs no check.
func (s *jsonScan) key() ([]byte, bool) {
	if !s.take('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		if s.b[s.i] == '"' {
			k := s.b[start:s.i]
			s.i++
			return k, s.take(':')
		}
	}
	return nil, false
}

// str reads a string value without escapes or control bytes that is
// valid UTF-8, which encoding/json decodes to its bytes unchanged. The
// result aliases the input.
func (s *jsonScan) str() ([]byte, bool) {
	if !s.take('"') {
		return nil, false
	}
	start := s.i
	ascii := true
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		switch {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, ascii || utf8.Valid(v)
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// kind reads an action kind, interned through binActionKinds.
func (s *jsonScan) kind() (string, bool) {
	v, ok := s.str()
	if !ok {
		return "", false
	}
	for _, k := range binActionKinds {
		if string(v) == k {
			return k, true
		}
	}
	return "", false
}

func (s *jsonScan) bool() (bool, bool) {
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false, true
	}
	return false, false
}

// number reads one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it is an integer (no fraction, no exponent).
func (s *jsonScan) number() (lit []byte, integer, ok bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false, false
		}
	}
	lit, s.i = b[s.i:i], i
	return lit, integer, true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int reads an integer literal into an int; literals encoding/json
// rejects for an int field (fractions, exponents, overflow) fall back.
func (s *jsonScan) int() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.Atoi(string(lit))
	return v, err == nil
}

// uint reads a non-negative integer literal into a uint64.
func (s *jsonScan) uint() (uint64, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer || lit[0] == '-' {
		return 0, false
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	return v, err == nil
}

// float reads a number literal into a float64 as encoding/json does;
// a literal out of float64 range falls back.
func (s *jsonScan) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}
