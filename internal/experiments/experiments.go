// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) as printable series: for each experiment it runs
// the same systems on the same (scaled-down) workloads and reports wall
// times or quality measures. The absolute numbers differ from the paper —
// the substrate is a simulated cluster on one machine — but the shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target; EXPERIMENTS.md records paper-vs-measured per experiment.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config parameterizes an experiment run.
type Config struct {
	// Workers is the simulated cluster size (default 8).
	Workers int
	// Seed drives the data generators (default 1).
	Seed int64
	// Scale multiplies the default row counts (default 1.0). The defaults
	// are chosen so the full suite finishes in minutes on a laptop.
	Scale float64
	// Out receives the printed tables (default os.Stdout handled by caller).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

func (c Config) rows(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

// Excluded marks a measurement the run skipped, mirroring the paper's
// exclusions ("we excluded Shark as it could not run on these larger
// datasets", runs "stopped after 4 hours").
const Excluded = -1.0

// Point is one measurement: X is the sweep variable (rows, workers, error
// percentage), Value the measured seconds (or quality number), Excluded if
// the system was not run at that point.
type Point struct {
	X     float64
	Value float64
}

// Series is one system's measurements across the sweep.
type Series struct {
	Name   string
	Points []Point
}

// Value returns the series value at x (Excluded when absent).
func (s Series) Value(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Value
		}
	}
	return Excluded
}

// Table is one regenerated figure or table.
type Table struct {
	ID     string // e.g. "fig9a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Get returns the named series.
func (t *Table) Get(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// Print renders the table in aligned text form.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	xs := t.xs()
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range t.Series {
			v := s.Value(x)
			if v == Excluded {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.4g", v))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV (x column plus one column per series;
// excluded cells are empty), the plot-ready form of the figure.
func (t *Table) WriteCSV(w io.Writer) error {
	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, x := range t.xs() {
		row := []string{trimFloat(x)}
		for _, s := range t.Series {
			v := s.Value(x)
			if v == Excluded {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%g", v))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// xs collects the sorted distinct X values across series.
func (t *Table) xs() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				out = append(out, p.X)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// timeIt measures f's wall time in seconds.
func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*Table, error)
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"tables23", "Tables 2-3: datasets and rules", Tables23},
		{"fig8a", "Figure 8(a): end-to-end cleansing, BigDansing vs NADEEF", Fig8a},
		{"fig8b", "Figure 8(b): detection vs repair time by error rate", Fig8b},
		{"fig9a", "Figure 9(a): single-node detection scaling, TaxA phi1", Fig9a},
		{"fig9b", "Figure 9(b): single-node detection scaling, TaxB phi2 (inequality)", Fig9b},
		{"fig9c", "Figure 9(c): single-node detection scaling, TPCH phi3", Fig9c},
		{"fig10a", "Figure 10(a): multi-worker detection, TaxA phi1 (incl. Hadoop backend)", Fig10a},
		{"fig10b", "Figure 10(b): multi-worker detection, TaxB phi2", Fig10b},
		{"fig10c", "Figure 10(c): large TPCH phi3, Spark vs Hadoop backends", Fig10c},
		{"fig11a", "Figure 11(a): scale-out speedup vs workers", Fig11a},
		{"fig11b", "Figure 11(b): deduplication, BigDansing vs Shark", Fig11b},
		{"fig11c", "Figure 11(c): OCJoin vs UCrossProduct vs CrossProduct", Fig11c},
		{"fig12a", "Figure 12(a): full API vs Detect-only abstraction", Fig12a},
		{"fig12b", "Figure 12(b): parallel vs centralized repair", Fig12b},
		{"table4", "Table 4: repair quality (precision/recall/iterations, distances)", Table4},
		{"ext-consolidation", "Extension: consolidated multi-rule plans vs per-rule plans", ExtConsolidation},
		{"ext-combiner", "Extension: MR combiner effect on distributed equivalence class spill", ExtCombiner},
		{"ext-net", "Extension: Fig. 10 rerun across real worker processes (net backend)", ExtNet},
		{"ext-accuracy", "Extension: repair accuracy, equivalence vs hypergraph vs prob (precision/recall/distance)", ExtAccuracy},
	}
}

// Run executes one experiment by ID and prints its tables to cfg.Out.
func Run(id string, cfg Config) error {
	cfg = cfg.withDefaults()
	for _, e := range All() {
		if e.ID != id {
			continue
		}
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
		if cfg.Out != nil {
			for _, t := range tables {
				t.Print(cfg.Out)
			}
		}
		return nil
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}
