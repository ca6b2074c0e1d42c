package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/textplot"
	"repro/internal/transpose"
)

// PerBenchFigure is the layout of Figures 6 and 7: one value per benchmark
// and method (the per-benchmark average over the 17 family folds), plus the
// extreme and average columns the paper appends.
type PerBenchFigure struct {
	// Title names the figure.
	Title string
	// Metric is "rank" (Figure 6) or "top1" (Figure 7).
	Metric string
	// Order is the benchmark order.
	Order []string
	// Methods in display order.
	Methods []string
	// Values[method][benchmark] is the per-benchmark average metric.
	Values map[string]map[string]float64
	// Extreme[method] is the min (Figure 6) or max (Figure 7) across
	// benchmarks; Average[method] the mean.
	Extreme, Average map[string]float64
}

func (fr *FamilyRun) perBenchFigure(title, metric string, get func(transpose.Metrics) float64, worstIsMin bool) (*PerBenchFigure, error) {
	fig := &PerBenchFigure{
		Title:   title,
		Metric:  metric,
		Order:   fr.Order,
		Methods: MethodNames,
		Values:  map[string]map[string]float64{},
		Extreme: map[string]float64{},
		Average: map[string]float64{},
	}
	for _, name := range MethodNames {
		_, perApp, err := fr.methodResults(name)
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(fr.Order))
		ext := math.Inf(1)
		if !worstIsMin {
			ext = math.Inf(-1)
		}
		sum := 0.0
		for _, app := range fr.Order {
			v := get(perApp[app])
			vals[app] = v
			sum += v
			if worstIsMin {
				ext = math.Min(ext, v)
			} else {
				ext = math.Max(ext, v)
			}
		}
		fig.Values[name] = vals
		fig.Extreme[name] = ext
		fig.Average[name] = sum / float64(len(fr.Order))
	}
	return fig, nil
}

// Figure6 reduces the family run to the paper's Figure 6 (per-benchmark
// Spearman rank correlation; extreme column = minimum).
func (fr *FamilyRun) Figure6() (*PerBenchFigure, error) {
	return fr.perBenchFigure(
		"Figure 6: Spearman rank correlation per benchmark (family CV)",
		"rank",
		func(m transpose.Metrics) float64 { return m.RankCorr },
		true,
	)
}

// Figure7 reduces the family run to the paper's Figure 7 (per-benchmark
// top-1 prediction error; extreme column = maximum).
func (fr *FamilyRun) Figure7() (*PerBenchFigure, error) {
	return fr.perBenchFigure(
		"Figure 7: top-1 prediction error per benchmark (family CV)",
		"top1",
		func(m transpose.Metrics) float64 { return m.Top1Err },
		false,
	)
}

// Render draws the figure as a grouped ASCII bar chart with the paper's
// extra Minimum/Maximum and Average groups.
func (f *PerBenchFigure) Render() string {
	labels := append([]string(nil), f.Order...)
	extremeLabel := "Minimum"
	if f.Metric == "top1" {
		extremeLabel = "Maximum"
	}
	labels = append(labels, extremeLabel, "Average")
	series := make([]textplot.Series, 0, len(f.Methods))
	for _, m := range f.Methods {
		vals := make([]float64, 0, len(labels))
		for _, app := range f.Order {
			vals = append(vals, f.Values[m][app])
		}
		vals = append(vals, f.Extreme[m], f.Average[m])
		series = append(series, textplot.Series{Name: m, Values: vals})
	}
	chart, err := textplot.GroupedBars(labels, series, 46)
	if err != nil {
		return fmt.Sprintf("%s\n(render error: %v)\n", f.Title, err)
	}
	var sb strings.Builder
	sb.WriteString(f.Title)
	sb.WriteString("\n\n")
	sb.WriteString(chart)
	return sb.String()
}
