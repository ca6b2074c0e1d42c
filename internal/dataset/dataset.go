// Package dataset models the performance database at the heart of the
// methodology: a benchmarks × machines matrix of SPEC-style speed ratios
// plus machine metadata (vendor, processor family, CPU nickname, ISA,
// release year). It provides the selections the experiments need — by
// processor family, by release year, by benchmark leave-one-out — and CSV
// persistence.
//
// Storage is columnar-friendly: every Matrix is backed by a single flat
// row-major []float64 with a stride, and the selection operations
// (SelectMachines, SelectBenchmarks, DropBenchmark, FamilySplit, YearSplit)
// return lightweight index-mapped views that share the parent's backing
// array instead of deep-copying scores. Views alias their parent: writing
// through a view (Set, SetRow) writes into the parent's storage. Use
// Compact to materialise an independent deep copy when isolation is needed.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Machine identifies one commercial system in the database.
type Machine struct {
	// ID is unique within a Matrix, e.g. "intel-xeon-gainestown-2".
	ID string
	// Vendor is the system vendor (not the CPU vendor).
	Vendor string
	// Family is the processor family, e.g. "Intel Xeon" (Table 1 rows).
	Family string
	// Nickname is the CPU nickname, e.g. "Gainestown" (Table 1 column 2).
	Nickname string
	// ISA is the instruction-set architecture, e.g. "x86-64".
	ISA string
	// Year is the system release year.
	Year int
}

// String renders a short human-readable identifier.
func (m Machine) String() string {
	return fmt.Sprintf("%s (%s %s, %d)", m.ID, m.Family, m.Nickname, m.Year)
}

// Matrix is a benchmarks × machines table of performance scores.
// At(b, m) is the score of benchmark b on machine m; higher is better
// (SPEC speed ratios versus the reference machine).
//
// The scores live in a flat row-major backing array shared between a matrix
// and every view derived from it. rowIdx/colIdx translate view coordinates
// to backing coordinates; nil means the identity mapping.
type Matrix struct {
	Benchmarks []string
	Machines   []Machine

	data   []float64 // flat row-major backing in parent coordinates
	stride int       // backing row width (machine count of the root matrix)
	rowIdx []int     // nil = identity; row b of this matrix is backing row rowIdx[b]
	colIdx []int     // nil = identity; col m of this matrix is backing col colIdx[m]
}

// New constructs a zero-filled Matrix and validates metadata uniqueness.
func New(benchmarks []string, machines []Machine) (*Matrix, error) {
	if err := checkUnique(benchmarks, machines); err != nil {
		return nil, err
	}
	return &Matrix{
		Benchmarks: append([]string(nil), benchmarks...),
		Machines:   append([]Machine(nil), machines...),
		data:       make([]float64, len(benchmarks)*len(machines)),
		stride:     len(machines),
	}, nil
}

func checkUnique(benchmarks []string, machines []Machine) error {
	seenB := make(map[string]bool, len(benchmarks))
	for _, b := range benchmarks {
		if b == "" {
			return errors.New("dataset: empty benchmark name")
		}
		if seenB[b] {
			return fmt.Errorf("dataset: duplicate benchmark %q", b)
		}
		seenB[b] = true
	}
	seenM := make(map[string]bool, len(machines))
	for _, m := range machines {
		if m.ID == "" {
			return errors.New("dataset: machine with empty ID")
		}
		if seenM[m.ID] {
			return fmt.Errorf("dataset: duplicate machine ID %q", m.ID)
		}
		seenM[m.ID] = true
	}
	return nil
}

// offset maps view coordinates to an index into the backing array. It
// performs no bounds checking; callers check against Benchmarks/Machines.
func (d *Matrix) offset(b, m int) int {
	if d.rowIdx != nil {
		b = d.rowIdx[b]
	}
	if d.colIdx != nil {
		m = d.colIdx[m]
	}
	return b*d.stride + m
}

func (d *Matrix) check(b, m int) {
	if b < 0 || b >= len(d.Benchmarks) || m < 0 || m >= len(d.Machines) {
		panic(fmt.Sprintf("dataset: index (%d, %d) out of range for %d×%d matrix",
			b, m, len(d.Benchmarks), len(d.Machines)))
	}
}

// At returns the score of benchmark b on machine m.
func (d *Matrix) At(b, m int) float64 {
	d.check(b, m)
	return d.data[d.offset(b, m)]
}

// Set assigns the score of benchmark b on machine m. On a view this writes
// through to the parent's storage.
func (d *Matrix) Set(b, m int, v float64) {
	d.check(b, m)
	d.data[d.offset(b, m)] = v
}

// IsView reports whether the matrix is an index-mapped view onto a larger
// backing array rather than a contiguous matrix of its own shape.
func (d *Matrix) IsView() bool {
	return d.rowIdx != nil || d.colIdx != nil || d.stride != len(d.Machines) ||
		len(d.data) != len(d.Benchmarks)*len(d.Machines)
}

// Compact returns an independent deep copy with contiguous storage — the
// old deep-copy selection semantics, for callers that must not alias.
func (d *Matrix) Compact() *Matrix {
	out := &Matrix{
		Benchmarks: append([]string(nil), d.Benchmarks...),
		Machines:   append([]Machine(nil), d.Machines...),
		data:       make([]float64, len(d.Benchmarks)*len(d.Machines)),
		stride:     len(d.Machines),
	}
	for b := range d.Benchmarks {
		d.CopyRowInto(b, out.data[b*out.stride:(b+1)*out.stride])
	}
	return out
}

// Validate checks structural consistency and that every score is finite and
// strictly positive (SPEC ratios are positive by construction).
func (d *Matrix) Validate() error {
	if err := checkUnique(d.Benchmarks, d.Machines); err != nil {
		return err
	}
	if d.rowIdx != nil && len(d.rowIdx) != len(d.Benchmarks) {
		return fmt.Errorf("dataset: %d row indices for %d benchmarks", len(d.rowIdx), len(d.Benchmarks))
	}
	if d.colIdx != nil && len(d.colIdx) != len(d.Machines) {
		return fmt.Errorf("dataset: %d column indices for %d machines", len(d.colIdx), len(d.Machines))
	}
	if d.rowIdx == nil && d.colIdx == nil && len(d.data) < len(d.Benchmarks)*d.stride {
		return fmt.Errorf("dataset: %d scores backing %d benchmarks of stride %d",
			len(d.data), len(d.Benchmarks), d.stride)
	}
	for b := range d.Benchmarks {
		for m := range d.Machines {
			v := d.At(b, m)
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("dataset: invalid score %v for %q on %q", v, d.Benchmarks[b], d.Machines[m].ID)
			}
		}
	}
	return nil
}

// NumBenchmarks returns the number of benchmark rows.
func (d *Matrix) NumBenchmarks() int { return len(d.Benchmarks) }

// NumMachines returns the number of machine columns.
func (d *Matrix) NumMachines() int { return len(d.Machines) }

// BenchmarkIndex returns the row of the named benchmark, or an error.
func (d *Matrix) BenchmarkIndex(name string) (int, error) {
	for i, b := range d.Benchmarks {
		if b == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown benchmark %q", name)
}

// MachineIndex returns the column of the machine with the given ID.
func (d *Matrix) MachineIndex(id string) (int, error) {
	for i, m := range d.Machines {
		if m.ID == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown machine %q", id)
}

// Row returns a copy of the scores of benchmark b across all machines.
func (d *Matrix) Row(b int) []float64 {
	out := make([]float64, len(d.Machines))
	d.CopyRowInto(b, out)
	return out
}

// CopyRowInto copies the scores of benchmark b across all machines into
// dst, which must have length NumMachines.
func (d *Matrix) CopyRowInto(b int, dst []float64) {
	if b < 0 || b >= len(d.Benchmarks) {
		panic(fmt.Sprintf("dataset: row %d out of range for %d×%d matrix", b, len(d.Benchmarks), len(d.Machines)))
	}
	if len(dst) != len(d.Machines) {
		panic(fmt.Sprintf("dataset: CopyRowInto: got %d slots, want %d", len(dst), len(d.Machines)))
	}
	if d.colIdx == nil {
		base := b
		if d.rowIdx != nil {
			base = d.rowIdx[b]
		}
		copy(dst, d.data[base*d.stride:base*d.stride+len(d.Machines)])
		return
	}
	for m := range dst {
		dst[m] = d.data[d.offset(b, m)]
	}
}

// Col returns a copy of the scores of machine m across all benchmarks.
func (d *Matrix) Col(m int) []float64 {
	out := make([]float64, len(d.Benchmarks))
	d.CopyColInto(m, out)
	return out
}

// CopyColInto copies the scores of machine m across all benchmarks into
// dst, which must have length NumBenchmarks.
func (d *Matrix) CopyColInto(m int, dst []float64) {
	if m < 0 || m >= len(d.Machines) {
		panic(fmt.Sprintf("dataset: column %d out of range for %d×%d matrix", m, len(d.Benchmarks), len(d.Machines)))
	}
	if len(dst) != len(d.Benchmarks) {
		panic(fmt.Sprintf("dataset: CopyColInto: got %d slots, want %d", len(dst), len(d.Benchmarks)))
	}
	col := m
	if d.colIdx != nil {
		col = d.colIdx[m]
	}
	if d.rowIdx == nil {
		for b := range dst {
			dst[b] = d.data[b*d.stride+col]
		}
		return
	}
	for b := range dst {
		dst[b] = d.data[d.rowIdx[b]*d.stride+col]
	}
}

// SetRow copies v into row b. On a view this writes through to the parent.
func (d *Matrix) SetRow(b int, v []float64) {
	if len(v) != len(d.Machines) {
		panic(fmt.Sprintf("dataset: SetRow: got %d values, want %d", len(v), len(d.Machines)))
	}
	for m, x := range v {
		d.Set(b, m, x)
	}
}

// SelectMachines returns a view containing only the machines for which keep
// returns true, preserving order. The view shares the receiver's score
// storage; writes through either alias the other.
func (d *Matrix) SelectMachines(keep func(Machine) bool) *Matrix {
	var idx []int
	var machines []Machine
	for i, m := range d.Machines {
		if keep(m) {
			if d.colIdx != nil {
				idx = append(idx, d.colIdx[i])
			} else {
				idx = append(idx, i)
			}
			machines = append(machines, m)
		}
	}
	return &Matrix{
		Benchmarks: append([]string(nil), d.Benchmarks...),
		Machines:   machines,
		data:       d.data,
		stride:     d.stride,
		rowIdx:     d.rowIdx,
		colIdx:     idx,
	}
}

// SelectBenchmarks returns a view restricted to the named benchmarks, in
// the given order. The view shares the receiver's score storage.
func (d *Matrix) SelectBenchmarks(names []string) (*Matrix, error) {
	idx := make([]int, 0, len(names))
	for _, n := range names {
		b, err := d.BenchmarkIndex(n)
		if err != nil {
			return nil, err
		}
		if d.rowIdx != nil {
			idx = append(idx, d.rowIdx[b])
		} else {
			idx = append(idx, b)
		}
	}
	return &Matrix{
		Benchmarks: append([]string(nil), names...),
		Machines:   append([]Machine(nil), d.Machines...),
		data:       d.data,
		stride:     d.stride,
		rowIdx:     idx,
		colIdx:     d.colIdx,
	}, nil
}

// DropBenchmark returns a view without the named benchmark, plus a copy of
// that benchmark's score row. This is the leave-one-out split: the dropped
// benchmark plays the application of interest. The view shares the
// receiver's score storage — the zero-copy fold construction.
func (d *Matrix) DropBenchmark(name string) (*Matrix, []float64, error) {
	b, err := d.BenchmarkIndex(name)
	if err != nil {
		return nil, nil, err
	}
	rest := make([]string, 0, len(d.Benchmarks)-1)
	idx := make([]int, 0, len(d.Benchmarks)-1)
	for i, bn := range d.Benchmarks {
		if i == b {
			continue
		}
		rest = append(rest, bn)
		if d.rowIdx != nil {
			idx = append(idx, d.rowIdx[i])
		} else {
			idx = append(idx, i)
		}
	}
	view := &Matrix{
		Benchmarks: rest,
		Machines:   append([]Machine(nil), d.Machines...),
		data:       d.data,
		stride:     d.stride,
		rowIdx:     idx,
		colIdx:     d.colIdx,
	}
	return view, d.Row(b), nil
}

// Families returns the distinct processor families, sorted.
func (d *Matrix) Families() []string {
	seen := make(map[string]bool)
	for _, m := range d.Machines {
		seen[m.Family] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Years returns the distinct release years, ascending.
func (d *Matrix) Years() []int {
	seen := make(map[int]bool)
	for _, m := range d.Machines {
		seen[m.Year] = true
	}
	out := make([]int, 0, len(seen))
	for y := range seen {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// FamilySplit returns (target, predictive) views for processor-family
// cross-validation: machines of the named family versus all others. Both
// views share the receiver's score storage.
func (d *Matrix) FamilySplit(family string) (target, predictive *Matrix, err error) {
	found := false
	for _, m := range d.Machines {
		if m.Family == family {
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("dataset: unknown processor family %q", family)
	}
	target = d.SelectMachines(func(m Machine) bool { return m.Family == family })
	predictive = d.SelectMachines(func(m Machine) bool { return m.Family != family })
	return target, predictive, nil
}

// FamilyTargets returns the target view FamilySplit(f) would return for
// every processor family f, keyed by family, built in one pass over the
// machines instead of one pass per family. The views share the
// receiver's score storage and one copy of its benchmark names.
func (d *Matrix) FamilyTargets() map[string]*Matrix {
	cols := map[string][]int{}
	for i, m := range d.Machines {
		cols[m.Family] = append(cols[m.Family], i)
	}
	benchmarks := append([]string(nil), d.Benchmarks...)
	out := make(map[string]*Matrix, len(cols))
	for family, idx := range cols {
		machines := make([]Machine, len(idx))
		for j, i := range idx {
			machines[j] = d.Machines[i]
			if d.colIdx != nil {
				idx[j] = d.colIdx[i]
			}
		}
		out[family] = &Matrix{
			Benchmarks: benchmarks,
			Machines:   machines,
			data:       d.data,
			stride:     d.stride,
			rowIdx:     d.rowIdx,
			colIdx:     idx,
		}
	}
	return out
}

// YearSplit returns machines released in targetYear as targets and machines
// matching the predicate on year as the predictive set. Both views share
// the receiver's score storage.
func (d *Matrix) YearSplit(targetYear int, predictive func(year int) bool) (tgt, pred *Matrix, err error) {
	tgt = d.SelectMachines(func(m Machine) bool { return m.Year == targetYear })
	pred = d.SelectMachines(func(m Machine) bool { return predictive(m.Year) })
	if tgt.NumMachines() == 0 {
		return nil, nil, fmt.Errorf("dataset: no machines released in %d", targetYear)
	}
	if pred.NumMachines() == 0 {
		return nil, nil, errors.New("dataset: empty predictive set")
	}
	return tgt, pred, nil
}

// WriteCSV writes the matrix with a header row of machine IDs and one
// metadata block of five leading comment-style rows (vendor, family,
// nickname, ISA, year are encoded in dedicated rows prefixed with '#').
// It rejects matrices that would not survive the round trip: duplicate
// metadata and scores ReadCSV would refuse (NaN, ±Inf, non-positive)
// are errors.
func (d *Matrix) WriteCSV(w io.Writer) error {
	if err := checkUnique(d.Benchmarks, d.Machines); err != nil {
		return err
	}
	for b := range d.Benchmarks {
		for m := range d.Machines {
			// Mirror ReadCSV's Validate: anything written must read back.
			if v := d.At(b, m); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("dataset: invalid score %v for %q on %q cannot be written",
					v, d.Benchmarks[b], d.Machines[m].ID)
			}
		}
	}
	cw := csv.NewWriter(w)
	header := append([]string{"benchmark"}, ids(d.Machines)...)
	if err := cw.Write(header); err != nil {
		return err
	}
	meta := map[string]func(Machine) string{
		"#vendor":   func(m Machine) string { return m.Vendor },
		"#family":   func(m Machine) string { return m.Family },
		"#nickname": func(m Machine) string { return m.Nickname },
		"#isa":      func(m Machine) string { return m.ISA },
		"#year":     func(m Machine) string { return strconv.Itoa(m.Year) },
	}
	for _, key := range []string{"#vendor", "#family", "#nickname", "#isa", "#year"} {
		row := make([]string, 1, len(d.Machines)+1)
		row[0] = key
		for _, m := range d.Machines {
			row = append(row, meta[key](m))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for b, name := range d.Benchmarks {
		row := make([]string, 1, len(d.Machines)+1)
		row[0] = name
		for m := range d.Machines {
			row = append(row, strconv.FormatFloat(d.At(b, m), 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a matrix written by WriteCSV into contiguous flat storage.
// Matrices with no benchmarks or no machines round-trip; duplicate machine
// IDs, duplicate benchmarks, and invalid scores (NaN, ±Inf, non-positive)
// are rejected.
func ReadCSV(r io.Reader) (*Matrix, error) {
	cr := csv.NewReader(r)
	// A machine-less matrix serialises as one field per row; disable the
	// uniform-field-count check and validate row widths ourselves.
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(records) < 6 {
		return nil, errors.New("dataset: CSV too short (need header + 5 metadata rows)")
	}
	header := records[0]
	if len(header) < 1 || header[0] != "benchmark" {
		return nil, errors.New("dataset: malformed CSV header")
	}
	n := len(header) - 1
	machines := make([]Machine, n)
	for i := range machines {
		machines[i].ID = header[i+1]
	}
	metaRows := map[string]int{}
	for ri := 1; ri <= 5; ri++ {
		if len(records[ri]) != n+1 {
			return nil, fmt.Errorf("dataset: metadata row %d has %d fields, want %d", ri, len(records[ri]), n+1)
		}
		metaRows[records[ri][0]] = ri
	}
	for _, key := range []string{"#vendor", "#family", "#nickname", "#isa", "#year"} {
		ri, ok := metaRows[key]
		if !ok {
			return nil, fmt.Errorf("dataset: missing metadata row %q", key)
		}
		for i := 0; i < n; i++ {
			v := records[ri][i+1]
			switch key {
			case "#vendor":
				machines[i].Vendor = v
			case "#family":
				machines[i].Family = v
			case "#nickname":
				machines[i].Nickname = v
			case "#isa":
				machines[i].ISA = v
			case "#year":
				y, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("dataset: bad year %q for machine %q: %w", v, machines[i].ID, err)
				}
				machines[i].Year = y
			}
		}
	}
	var benchmarks []string
	data := make([]float64, 0, (len(records)-6)*n)
	for _, rec := range records[6:] {
		if len(rec) != n+1 {
			return nil, fmt.Errorf("dataset: row %q has %d fields, want %d", rec[0], len(rec), n+1)
		}
		benchmarks = append(benchmarks, rec[0])
		for i := 0; i < n; i++ {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: bad score %q for %q: %w", rec[i+1], rec[0], err)
			}
			data = append(data, v)
		}
	}
	d := &Matrix{Benchmarks: benchmarks, Machines: machines, data: data, stride: n}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func ids(machines []Machine) []string {
	out := make([]string, len(machines))
	for i, m := range machines {
		out[i] = m.ID
	}
	return out
}
