// Package export is SECRETA's Data Export Module: it serializes datasets,
// hierarchies, policies, workloads (all CSV/text, handled by their own
// packages), experiment series (CSV), run results (JSON) and charts (SVG)
// to disk, plus streaming record writers (NDJSON and CSV over a
// *dataset.Indexed) that emit one record at a time, so exporting an
// N-record anonymized dataset costs O(chunk + dictionaries) memory, not
// O(N).
//
// Invariant: RecordLines is the single definition of the compact
// record-line format — the streamed record lines, secreta-serve's chunked
// result frames, and the compacted records of the buffered JSON payload
// are all byte-identical. It writes its JSON by hand, and encoding/json is
// its oracle: every line must equal json.Marshal of the record's
// {values, items,omitempty} struct (FuzzRecordLinesMatchJSON).
// encoding/json itself runs once per stream, for the header, never per
// record.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/plot"
	"secreta/internal/timing"
)

// SeriesCSV writes one or more experiment series as CSV: one row per sweep
// point per series, with every utility indicator as a column.
func SeriesCSV(w io.Writer, series []*experiment.Series) error {
	cw := csv.NewWriter(w)
	header := []string{
		"series", "param", "x", "runtime_s", "error",
		"gcp", "trans_gcp", "are", "discernibility", "cavg",
		"suppression", "min_class", "classes", "k_anonymous", "km_anonymous",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("export: writing series header: %w", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, s := range series {
		for _, p := range s.Points {
			errStr := ""
			if p.Err != nil {
				errStr = p.Err.Error()
			}
			ind := p.Indicators
			row := []string{
				s.Label, s.Param, f(p.X), f(p.Runtime.Seconds()), errStr,
				f(ind.GCP), f(ind.TransactionGCP), f(ind.ARE),
				f(ind.Discernibility), f(ind.CAVG), f(ind.SuppressionRatio),
				strconv.Itoa(ind.MinClassSize), strconv.Itoa(ind.Classes),
				strconv.FormatBool(ind.KAnonymous), strconv.FormatBool(ind.KMAnonymous),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("export: writing series row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// resultJSON is the serializable view of an engine.Result.
type resultJSON struct {
	Label      string            `json:"label"`
	Mode       string            `json:"mode"`
	RuntimeSec float64           `json:"runtime_s"`
	Phases     []phaseJSON       `json:"phases"`
	Indicators engine.Indicators `json:"indicators"`
	Error      string            `json:"error,omitempty"`
}

type phaseJSON struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

func toJSON(r *engine.Result) resultJSON {
	out := resultJSON{
		Label:      r.Config.DisplayLabel(),
		Mode:       r.Config.Mode.String(),
		RuntimeSec: r.Runtime.Seconds(),
		Indicators: r.Indicators,
	}
	for _, p := range r.Phases {
		out.Phases = append(out.Phases, phaseJSON{
			Name:       p.Name,
			DurationMS: float64(p.Duration) / float64(time.Millisecond),
		})
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

// ResultsJSON writes run results as an indented JSON array.
func ResultsJSON(w io.Writer, results []*engine.Result) error {
	arr := make([]resultJSON, len(results))
	for i, r := range results {
		arr[i] = toJSON(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}

// seriesJSON is the serializable view of an experiment.Series.
type seriesJSON struct {
	Label  string      `json:"label"`
	Param  string      `json:"param"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	X          float64           `json:"x"`
	RuntimeSec float64           `json:"runtime_s"`
	Indicators engine.Indicators `json:"indicators"`
	Error      string            `json:"error,omitempty"`
}

// SeriesJSON writes experiment series as an indented JSON array — the
// secreta-serve payload for evaluate sweeps and comparisons.
func SeriesJSON(w io.Writer, series []*experiment.Series) error {
	arr := make([]seriesJSON, len(series))
	for i, s := range series {
		out := seriesJSON{Label: s.Label, Param: s.Param, Points: make([]pointJSON, len(s.Points))}
		for j, p := range s.Points {
			pj := pointJSON{X: p.X, RuntimeSec: p.Runtime.Seconds(), Indicators: p.Indicators}
			if p.Err != nil {
				pj.Error = p.Err.Error()
			}
			out.Points[j] = pj
		}
		arr[i] = out
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}

// ChartSVG writes a chart as an SVG file.
func ChartSVG(path string, c *plot.Chart, width, height int) error {
	return writeFile(path, c.SVG(width, height))
}

// PhasesCSV writes a phase breakdown as CSV.
func PhasesCSV(w io.Writer, phases []timing.Phase) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "duration_ms"}); err != nil {
		return err
	}
	for _, p := range phases {
		ms := strconv.FormatFloat(float64(p.Duration)/float64(time.Millisecond), 'g', 6, 64)
		if err := cw.Write([]string{p.Name, ms}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SeriesCSVFile writes series to a CSV file path.
func SeriesCSVFile(path string, series []*experiment.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SeriesCSV(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ResultsJSONFile writes results to a JSON file path.
func ResultsJSONFile(path string, results []*engine.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ResultsJSON(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFile(path, content string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, content); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
