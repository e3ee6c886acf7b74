package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/mcbatch"
	"repro/internal/report"
)

// Getter reads one stored payload; store.Store.Get satisfies it. The
// indirection keeps exports testable without a disk and lets serve hand
// in a metrics-counting wrapper.
type Getter func(key mcbatch.Key) ([]byte, bool, error)

// ErrIncomplete reports an export attempted before every cell reached the
// store.
var ErrIncomplete = errors.New("campaign: incomplete — some cells have no stored result")

// Export is the JSON form of a completed campaign grid.
type Export struct {
	ID    string       `json:"id"`
	Name  string       `json:"name,omitempty"`
	Cells []ExportCell `json:"cells"`
}

// ExportCell is one grid point of an export: its coordinates, the content
// address, and the stored result payload verbatim.
type ExportCell struct {
	Algorithm string `json:"algorithm"`
	Side      int    `json:"side"`
	Trials    int    `json:"trials"`
	Workload  string `json:"workload"`
	Key       string `json:"key"`
	// Result embeds the stored payload bytes as raw JSON, so the export
	// is a pure function of the store's contents — byte-identical no
	// matter which run (or how many interrupted runs) populated it.
	Result json.RawMessage `json:"result"`
}

// collect expands spec and reads every cell's payload. A missing cell
// wraps ErrIncomplete and names the first absent coordinate.
func collect(spec Spec, get Getter) (string, []Cell, [][]byte, error) {
	id, cells, err := spec.Expand()
	if err != nil {
		return "", nil, nil, err
	}
	payloads := make([][]byte, len(cells))
	for i, c := range cells {
		payload, ok, err := get(c.Key)
		if err != nil {
			return "", nil, nil, fmt.Errorf("campaign: cell %d (%s): %w", i, c, err)
		}
		if !ok {
			return "", nil, nil, fmt.Errorf("%w: cell %d (%s)", ErrIncomplete, i, c)
		}
		payloads[i] = payload
	}
	return id, cells, payloads, nil
}

// ExportJSON renders the completed grid as one JSON document, cells in
// expansion order, each embedding its stored payload verbatim. The bytes
// are a deterministic function of (spec, store contents): a resumed
// campaign exports byte-identically to an uninterrupted one.
func ExportJSON(spec Spec, get Getter) ([]byte, error) {
	id, cells, payloads, err := collect(spec, get)
	if err != nil {
		return nil, err
	}
	out := Export{ID: id, Name: spec.Name, Cells: make([]ExportCell, len(cells))}
	for i, c := range cells {
		out.Cells[i] = ExportCell{
			Algorithm: c.Algorithm,
			Side:      c.Side,
			Trials:    c.Trials,
			Workload:  c.Workload,
			Key:       c.Key.String(),
			Result:    json.RawMessage(payloads[i]),
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ExportCSV renders the completed grid as CSV: one row per cell with the
// step/swap/comparison statistics decoded from the stored payloads. Same
// determinism contract as ExportJSON.
func ExportCSV(spec Spec, get Getter) ([]byte, error) {
	_, cells, payloads, err := collect(spec, get)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("",
		"algorithm", "side", "trials", "workload", "seed", "key",
		"steps_mean", "steps_stddev", "steps_min", "steps_max",
		"swaps_mean", "comparisons_mean")
	for i, c := range cells {
		var p report.ResultPayload
		if err := json.Unmarshal(payloads[i], &p); err != nil {
			return nil, fmt.Errorf("campaign: cell %d (%s): bad stored payload: %w", i, c, err)
		}
		tbl.AddRow(c.Algorithm, c.Side, c.Trials, c.Workload,
			fmt.Sprint(p.Spec.Seed), c.Key.String(),
			p.Steps.Mean, p.Steps.StdDev, p.Steps.Min, p.Steps.Max,
			p.Swaps.Mean, p.Comparisons.Mean)
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
