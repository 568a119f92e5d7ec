// Package bench replays the paper's evaluation on the Blue Gene/P model
// (internal/bgpsim): each driver returns an Experiment holding the same
// rows/series as one of the paper's tables, figures or ablations, and
// cmd/gpawsim prints them. Nothing here runs or times the live runtime —
// `bash benchmark/run.sh` measures it and the package tests assert it.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is a reproduced table or figure: a caption, column headers,
// data rows and free-form notes comparing against the paper.
type Experiment struct {
	Name    string
	Caption string
	Header  []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a data row.
func (e *Experiment) AddRow(cells ...string) { e.Rows = append(e.Rows, cells) }

// AddNote appends a note line.
func (e *Experiment) AddNote(format string, args ...interface{}) {
	e.Notes = append(e.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the experiment as an aligned text table.
func (e *Experiment) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n%s\n", e.Name, e.Caption)
	widths := make([]int, len(e.Header))
	for i, h := range e.Header {
		widths[i] = len(h)
	}
	for _, row := range e.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(c)
		}
		fmt.Fprintln(w, b.String())
	}
	line(e.Header)
	for _, row := range e.Rows {
		line(row)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the experiment to a string.
func (e *Experiment) String() string {
	var b strings.Builder
	e.Fprint(&b)
	return b.String()
}
