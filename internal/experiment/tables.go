package experiment

import (
	"fmt"
	"io"

	"altroute/internal/core"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
)

// Render writes the table in the paper's layout: one row per algorithm,
// one (Avg. Runtime, ANER, ACRE) column group per cost type. Runtime is
// printed in milliseconds: at the paper's scale most attacks take well
// under one.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s, WEIGHT TYPE: %s  (%d nodes, %d edges, %d runs/cell)\n",
		t.City, t.WeightType, t.Summary.Nodes, t.Summary.Edges, t.Units)

	costs := t.costTypes()
	fmt.Fprintf(w, "%-17s", "Algorithm")
	for _, ct := range costs {
		fmt.Fprintf(w, " | %-29s", ct.String())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-17s", "")
	for range costs {
		fmt.Fprintf(w, " | %11s %8s %8s", "Runtime(ms)", "ANER", "ACRE")
	}
	fmt.Fprintln(w)

	for _, alg := range t.algorithms() {
		fmt.Fprintf(w, "%-17s", alg.String())
		for _, ct := range costs {
			c := t.Cell(alg, ct)
			if c == nil || c.Runs == 0 {
				fmt.Fprintf(w, " | %11s %8s %8s", "-", "-", "-")
				continue
			}
			fmt.Fprintf(w, " | %11.3f %8.2f %8.2f", 1000*c.AvgRuntimeS, c.ANER, c.ACRE)
		}
		fmt.Fprintln(w)
	}
}

func (t Table) costTypes() []roadnet.CostType {
	var out []roadnet.CostType
	seen := map[roadnet.CostType]bool{}
	for _, c := range t.Cells {
		if !seen[c.CostType] {
			seen[c.CostType] = true
			out = append(out, c.CostType)
		}
	}
	return out
}

func (t Table) algorithms() []core.Algorithm {
	var out []core.Algorithm
	seen := map[core.Algorithm]bool{}
	for _, c := range t.Cells {
		if !seen[c.Algorithm] {
			seen[c.Algorithm] = true
			out = append(out, c.Algorithm)
		}
	}
	return out
}

// RenderTableI writes the Table I city graph summary.
func RenderTableI(w io.Writer, rows []metrics.GraphSummary) {
	fmt.Fprintln(w, "CITY GRAPH SUMMARIES (Table I)")
	fmt.Fprintf(w, "%-15s %7s %8s %9s\n", "City", "Nodes", "Edges", "AvgDeg")
	for _, r := range rows {
		fmt.Fprintln(w, r.String())
	}
}

// RenderTableIX writes the Table IX cross-cost-type averages. A weight
// type with no averaged cell for a city prints "—": the paper has no Los
// Angeles LENGTH table, so that pair is absent, not zero.
func RenderTableIX(w io.Writer, rows []CityAverage) {
	fmt.Fprintln(w, "AVERAGE ANER AND ACRE ACROSS ALL COST TYPES (Table IX)")
	fmt.Fprintf(w, "%-15s | %8s %8s | %8s %8s\n", "City", "LEN.ANER", "LEN.ACRE", "TIM.ANER", "TIM.ACRE")
	pair := func(r CityAverage, wt roadnet.WeightType) string {
		if _, ok := r.ANER[wt]; !ok {
			return fmt.Sprintf("%8s %8s", "—", "—")
		}
		return fmt.Sprintf("%8.2f %8.2f", r.ANER[wt], r.ACRE[wt])
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s | %s | %s\n", r.City, pair(r, roadnet.WeightLength), pair(r, roadnet.WeightTime))
	}
}

// RenderTableX writes the Table X threshold rows.
func RenderTableX(w io.Writer, rows []ThresholdRow, rank int) {
	fmt.Fprintf(w, "THRESHOLD TABLE, WEIGHT TYPE: TIME (Table X, rank %d/%d)\n", rank, 2*rank)
	fmt.Fprintf(w, "%-15s %22s %22s\n", "City",
		fmt.Sprintf("Avg Incr. to %dth", rank), fmt.Sprintf("Avg Incr. to %dth", 2*rank))
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %21.2f%% %21.2f%%\n", r.City, r.AvgInc100, r.AvgInc200)
	}
}
