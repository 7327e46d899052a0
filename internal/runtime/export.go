package runtime

// CSV exporters, so traces and metrics can be analysed with external
// tooling (gnuplot, pandas) without re-running simulations.

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteTraceCSV streams the recorded events as CSV with a header row:
// event, cycle, smax_ms, fmin, point, drc_ms, reconfigured, violated.
func (m *Metrics) WriteTraceCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"event", "cycle", "smax_ms", "fmin", "point", "drc_ms", "reconfigured", "violated"}); err != nil {
		return err
	}
	for _, e := range m.Trace {
		rec := []string{
			strconv.Itoa(e.Event),
			formatF(e.CycleTime),
			formatF(e.Spec.SMaxMs),
			formatF(e.Spec.FMin),
			strconv.Itoa(e.Point),
			formatF(e.DRC),
			strconv.FormatBool(e.Reconfigured),
			strconv.FormatBool(e.Violated),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ReadSpecsCSV parses a specification sequence for Params.Replay. The
// input needs (at least) the columns smax_ms and fmin; a WriteTraceCSV
// output can be fed back directly, replaying the specifications a
// previous run saw. Rows are matched by header name; files without a
// header are read as "smax_ms,fmin" pairs.
func ReadSpecsCSV(r io.Reader) ([]QoSSpec, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("runtime: empty spec CSV")
	}
	sCol, fCol := 0, 1
	start := 0
	if _, err := strconv.ParseFloat(rows[0][0], 64); err != nil {
		// Header row: locate the columns by name.
		sCol, fCol = -1, -1
		for i, name := range rows[0] {
			switch name {
			case "smax_ms":
				sCol = i
			case "fmin":
				fCol = i
			}
		}
		if sCol < 0 || fCol < 0 {
			return nil, fmt.Errorf("runtime: spec CSV header lacks smax_ms/fmin columns")
		}
		start = 1
	}
	var specs []QoSSpec
	for i, row := range rows[start:] {
		if len(row) <= sCol || len(row) <= fCol {
			return nil, fmt.Errorf("runtime: spec CSV row %d too short", i+start+1)
		}
		sv, err := strconv.ParseFloat(row[sCol], 64)
		if err != nil {
			return nil, fmt.Errorf("runtime: spec CSV row %d: bad smax %q", i+start+1, row[sCol])
		}
		fv, err := strconv.ParseFloat(row[fCol], 64)
		if err != nil {
			return nil, fmt.Errorf("runtime: spec CSV row %d: bad fmin %q", i+start+1, row[fCol])
		}
		specs = append(specs, QoSSpec{SMaxMs: sv, FMin: fv})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("runtime: spec CSV has no data rows")
	}
	return specs, nil
}
