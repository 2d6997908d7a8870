// Package report renders repairs as human-readable summaries: the trust
// spectrum as a fixed-width table streamed one frontier point at a time
// (SpectrumWriter), the wire row every spectrum surface encodes (Row), and
// per-repair cell-change listings (Changes). The CLI uses it; library
// users can too.
package report

import (
	"fmt"
	"io"
	"strings"

	"relatrust/internal/relation"
	"relatrust/internal/repair"
)

// Row is the wire form of one frontier point, shared by every renderer of
// the trust spectrum: the CLI's table writer and the HTTP server's
// NDJSON/SSE streams all encode exactly these fields, so the two surfaces
// cannot drift apart. Level is 1-based in frontier order ("trust the FDs"
// first); Sigma is the modified FD set rendered against the instance's
// schema.
type Row struct {
	Level       int     `json:"level"`
	Tau         int     `json:"tau"`
	Sigma       string  `json:"sigma"`
	FDCost      float64 `json:"fd_cost"`
	CellChanges int     `json:"cell_changes"`
	DeltaP      int     `json:"delta_p"`
}

// RowOf encodes one repair as the wire row it is rendered from.
func RowOf(in *relation.Instance, level int, r *repair.Repair) Row {
	return Row{
		Level:       level,
		Tau:         r.Tau,
		Sigma:       r.Sigma.Format(in.Schema),
		FDCost:      r.FDCost,
		CellChanges: r.Data.NumChanges(),
		DeltaP:      r.DeltaP,
	}
}

// cells returns the row rendered as table cells, in header order.
func (r Row) cells() []string {
	return []string{
		fmt.Sprintf("%d", r.Level),
		fmt.Sprintf("%d", r.Tau),
		r.Sigma,
		fmt.Sprintf("%.4g", r.FDCost),
		fmt.Sprintf("%d", r.CellChanges),
		fmt.Sprintf("%d", r.DeltaP),
	}
}

// spectrumHeader is the spectrum table's column header.
var spectrumHeader = []string{"level", "tau", "FD modification", "dist_c", "cell changes", "bound δP"}

// Options tunes rendering.
type Options struct {
	// MaxCells caps the changed-cell listing per repair (0 = 20).
	MaxCells int
}

func (o Options) withDefaults() Options {
	if o.MaxCells <= 0 {
		o.MaxCells = 20
	}
	return o
}

// SpectrumWriter renders the trust spectrum one row at a time, for
// streaming consumers (the CLI prints each frontier point as the sweep
// yields it, so a cancelled sweep still shows the partial frontier). It
// cannot right-size columns to rows it has not seen, so it uses fixed
// widths sized for typical FD renderings.
type SpectrumWriter struct {
	w     io.Writer
	n     int
	wrote bool
}

// NewSpectrumWriter returns a streaming spectrum renderer over w.
func NewSpectrumWriter(w io.Writer) *SpectrumWriter {
	return &SpectrumWriter{w: w}
}

const spectrumRowFmt = "%-5s  %-6s  %-40s  %-7s  %-12s  %s\n"

// Row renders one frontier point, emitting the header before the first.
func (sw *SpectrumWriter) Row(in *relation.Instance, r *repair.Repair) error {
	if !sw.wrote {
		sw.wrote = true
		h := make([]any, len(spectrumHeader))
		for i, c := range spectrumHeader {
			h[i] = c
		}
		if _, err := fmt.Fprintf(sw.w, spectrumRowFmt, h...); err != nil {
			return err
		}
	}
	sw.n++
	row := RowOf(in, sw.n, r)
	cells := row.cells()
	args := make([]any, len(cells))
	for i, c := range cells {
		args[i] = c
	}
	_, err := fmt.Fprintf(sw.w, spectrumRowFmt, args...)
	return err
}

// Rows reports how many rows were rendered.
func (sw *SpectrumWriter) Rows() int { return sw.n }

// Changes renders the changed cells of one repair.
func Changes(w io.Writer, in *relation.Instance, r *repair.Repair, opt Options) error {
	opt = opt.withDefaults()
	var b strings.Builder
	for i, c := range r.Data.Changed {
		if i >= opt.MaxCells {
			fmt.Fprintf(&b, "  … %d more changes\n", r.Data.NumChanges()-i)
			break
		}
		fmt.Fprintf(&b, "  %-16s %s → %s\n", c.Format(in.Schema),
			in.Tuples[c.Tuple][c.Attr], r.Data.Value(c))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
