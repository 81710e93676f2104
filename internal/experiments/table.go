package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is what every exhibit returns: a title, named columns, rows of typed
// cells, and notes — derived figures, each under a label.
type Table struct {
	title   string
	columns []string
	rows    [][]cell
	notes   []note
}

type note struct {
	label string
	value cell
}

func newTable(title string, columns ...string) Table { return Table{title: title, columns: columns} }

func (t *Table) add(cells ...cell) { t.rows = append(t.rows, cells) }

func (t *Table) note(label string, value cell) { t.notes = append(t.notes, note{label, value}) }

// kind is what a cell measures. It decides how the cell prints, which clock
// labels its column, and whether a golden file may hold it exactly: every
// kind but the two read off the host's wall clock repeats bit for bit at a
// seed.
type kind uint8

const (
	countKind   kind = iota // an integer count
	ratioKind               // a dimensionless ratio, to a stated number of decimals
	percentKind             // a share, printed as a percentage
	auprKind                // area under the precision-recall curve
	textKind                // a label or an identifier
	// virtualKind is a virtual cluster time: counted work priced by the
	// engine's cost constants plus simulated I/O, the same at any load and
	// pool size.
	virtualKind
	wallKind        // a host wall-clock time
	speedupKind     // a ratio of two virtual times, printed as "N.NNx"
	wallSpeedupKind // a ratio of two wall times, printed as "N.NNx"
)

// placeholder is what the golden writer prints for a wall-clock cell.
var placeholder = map[kind]string{wallKind: "<wall>", wallSpeedupKind: "<wall ratio>"}

// clock is the header suffix that names a time column's clock.
var clock = map[kind]string{virtualKind: " (virtual)", wallKind: " (wall)"}

type cell struct {
	kind kind
	prec int // a ratio's decimals
	i    int64
	f    float64
	s    string
}

func count[T int | int64](n T) cell      { return cell{kind: countKind, i: int64(n)} }
func ratio(v float64, decimals int) cell { return cell{kind: ratioKind, f: v, prec: decimals} }
func percent(share float64) cell         { return cell{kind: percentKind, f: share} }
func aupr(v float64) cell                { return cell{kind: auprKind, f: v} }
func text(s string) cell                 { return cell{kind: textKind, s: s} }
func virtual(d time.Duration) cell       { return cell{kind: virtualKind, i: int64(d)} }
func wall(d time.Duration) cell          { return cell{kind: wallKind, i: int64(d)} }
func speedup(r float64) cell             { return cell{kind: speedupKind, f: r} }
func wallSpeedup(r float64) cell         { return cell{kind: wallSpeedupKind, f: r} }
func timeRatio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (c cell) format(golden bool) string {
	if p, ok := placeholder[c.kind]; ok && golden {
		return p
	}
	switch c.kind {
	case countKind:
		return strconv.FormatInt(c.i, 10)
	case ratioKind:
		return strconv.FormatFloat(c.f, 'f', c.prec, 64)
	case percentKind:
		return strconv.FormatFloat(100*c.f, 'f', 1, 64) + "%"
	case auprKind:
		return strconv.FormatFloat(c.f, 'f', 3, 64)
	case virtualKind, wallKind:
		// µs resolution below a second, so a quick-scale figure of a few
		// milliseconds keeps its shape.
		if d := time.Duration(c.i); d < time.Second {
			return d.Round(time.Microsecond).String()
		}
		return time.Duration(c.i).Round(time.Millisecond).String()
	case speedupKind, wallSpeedupKind:
		return strconv.FormatFloat(c.f, 'f', 2, 64) + "x"
	}
	return c.s
}

// Write prints an exhibit's tables, each followed by a blank line, under a
// banner naming the exhibit when banner is set.
func Write(w io.Writer, name string, banner bool, tables []Table) error {
	return write(w, name, banner, tables, false)
}

// write is Write; golden prints wall-clock cells as their kind's
// placeholder, so what is left repeats at a seed at any pool size.
func write(w io.Writer, name string, banner bool, tables []Table, golden bool) error {
	var b strings.Builder
	if banner {
		fmt.Fprintf(&b, "==================== %s ====================\n", name)
	}
	for _, t := range tables {
		t.write(&b, golden)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write lays the table out: text columns flush left, all-numeric columns
// flush right, two spaces apart, each time column's header naming its clock.
func (t Table) write(b *strings.Builder, golden bool) {
	if t.title != "" {
		b.WriteString(t.title + "\n")
	}
	var lines [][]string
	if strings.Join(t.columns, "") != "" { // a list of labelled values has no header
		lines = append(lines, slices.Clone(t.columns))
		for j := range t.columns {
			lines[0][j] += clock[t.rows[0][j].kind]
		}
	}
	right := make([]bool, len(t.columns))
	for j := range right {
		right[j] = !slices.ContainsFunc(t.rows, func(row []cell) bool { return row[j].kind == textKind })
	}
	width := make([]int, len(t.columns))
	for _, row := range t.rows {
		line := make([]string, len(row))
		for j, c := range row {
			line[j] = c.format(golden)
		}
		lines = append(lines, line)
	}
	for _, line := range lines {
		for j, s := range line {
			width[j] = max(width[j], utf8.RuneCountInString(s))
		}
	}
	for _, line := range lines {
		var l strings.Builder
		for j, s := range line {
			if right[j] {
				fmt.Fprintf(&l, "  %*s", width[j], s)
			} else {
				fmt.Fprintf(&l, "  %-*s", width[j], s)
			}
		}
		b.WriteString(strings.TrimRight(l.String()[2:], " ") + "\n")
	}
	for _, n := range t.notes {
		b.WriteString(n.label + clock[n.value.kind] + ": " + n.value.format(golden) + "\n")
	}
}
