package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
)

// smallSpec is a fast spec for tests: a tiny Boston, low path rank, few
// sources.
func smallSpec() Spec {
	return Spec{
		City:               citygen.Boston,
		Scale:              0.015,
		Seed:               11,
		WeightType:         roadnet.WeightTime,
		PathRank:           8,
		SourcesPerHospital: 2,
	}
}

// runTable runs spec's whole grid the way cmd/experiment does: build the
// network, sample the units, run the table on every core.
func runTable(spec Spec) (Table, error) {
	spec.fill()
	net, err := buildNetwork(&spec)
	if err != nil {
		return Table{}, err
	}
	units, err := SampleUnits(net, spec)
	if err != nil {
		return Table{}, err
	}
	return RunTableOnUnitsParallelCtx(context.Background(), net, units, spec, 0)
}

func TestSampleUnits(t *testing.T) {
	spec := smallSpec()
	net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatalf("SampleUnits: %v", err)
	}
	// 4 hospitals x 2 sources.
	if len(units) != 8 {
		t.Fatalf("units = %d, want 8", len(units))
	}
	hospitals := map[string]int{}
	for _, u := range units {
		hospitals[u.Hospital]++
		if u.PStar.Source() != u.Source || u.PStar.Target() != u.Dest {
			t.Errorf("unit p* endpoints mismatch: %+v", u)
		}
		if u.PStar.Hops() == 0 {
			t.Errorf("unit has empty p*")
		}
	}
	if len(hospitals) != 4 {
		t.Errorf("hospitals covered = %d, want 4", len(hospitals))
	}
	// Determinism.
	units2, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range units {
		if units[i].Source != units2[i].Source || units[i].Dest != units2[i].Dest {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestSampleUnitsNoHospitals(t *testing.T) {
	net := roadnet.NewNetwork("bare")
	if _, err := SampleUnits(net, smallSpec()); !errors.Is(err, ErrNoHospitals) {
		t.Errorf("err = %v, want ErrNoHospitals", err)
	}
}

func TestSampleUnitsImpossibleRank(t *testing.T) {
	// A line network has exactly one simple path between any pair, so any
	// rank > 1 is unavailable and every sampling attempt exhausts fast.
	net := roadnet.NewNetwork("line")
	prev := net.AddIntersection(geo.Point{Lat: 42, Lon: -71})
	for i := 1; i < 10; i++ {
		cur := net.AddIntersection(geo.Point{Lat: 42 + float64(i)*0.001, Lon: -71})
		if _, _, err := net.AddTwoWayRoad(prev, cur, roadnet.Road{}); err != nil {
			t.Fatal(err)
		}
		prev = cur
	}
	if _, err := net.AttachPOI("Line General", citygen.KindHospital, geo.Point{Lat: 42.005, Lon: -71.0001}); err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.PathRank = 50
	if _, err := SampleUnits(net, spec); !errors.Is(err, ErrSampling) {
		t.Errorf("err = %v, want ErrSampling", err)
	}
}

func TestSampleUnitsPartialOnErrSampling(t *testing.T) {
	// Two hospitals: one inside a well-connected grid, one on an isolated
	// intersection no source can reach. Sampling must fail with ErrSampling
	// but still hand back the first hospital's units.
	net := roadnet.NewNetwork("split")
	const side = 4
	var grid [side][side]graph.NodeID
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			grid[i][j] = net.AddIntersection(geo.Point{Lat: 42 + float64(i)*0.001, Lon: -71 + float64(j)*0.001})
		}
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i+1 < side {
				if _, _, err := net.AddTwoWayRoad(grid[i][j], grid[i+1][j], roadnet.Road{}); err != nil {
					t.Fatal(err)
				}
			}
			if j+1 < side {
				if _, _, err := net.AddTwoWayRoad(grid[i][j], grid[i][j+1], roadnet.Road{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := net.AttachPOI("Grid General", citygen.KindHospital, geo.Point{Lat: 42.001, Lon: -70.999}); err != nil {
		t.Fatal(err)
	}
	// A disconnected line component: unreachable from the grid, and with
	// exactly one simple path between any of its own pairs, so no source
	// anywhere can supply a rank-4 alternative route to its hospital.
	prev := net.AddIntersection(geo.Point{Lat: 43, Lon: -71})
	for i := 1; i < 5; i++ {
		cur := net.AddIntersection(geo.Point{Lat: 43 + float64(i)*0.001, Lon: -71})
		if _, _, err := net.AddTwoWayRoad(prev, cur, roadnet.Road{}); err != nil {
			t.Fatal(err)
		}
		prev = cur
	}
	if _, err := net.AttachPOI("Island Medical", citygen.KindHospital, geo.Point{Lat: 43.002, Lon: -71.0001}); err != nil {
		t.Fatal(err)
	}

	spec := smallSpec()
	spec.PathRank = 4
	units, err := SampleUnits(net, spec)
	if !errors.Is(err, ErrSampling) {
		t.Fatalf("err = %v, want ErrSampling", err)
	}
	if len(units) != spec.SourcesPerHospital {
		t.Fatalf("partial units = %d, want %d (the reachable hospital's)", len(units), spec.SourcesPerHospital)
	}
	for _, u := range units {
		if u.Hospital != "Grid General" {
			t.Errorf("partial unit for %q, want only the reachable hospital", u.Hospital)
		}
	}
}

func TestRunTableFullGrid(t *testing.T) {
	spec := smallSpec()
	table, err := runTable(spec)
	if err != nil {
		t.Fatalf("runTable: %v", err)
	}
	if table.City != "Boston" || table.WeightType != roadnet.WeightTime {
		t.Errorf("table header = %q/%v", table.City, table.WeightType)
	}
	if len(table.Cells) != 4*3 {
		t.Fatalf("cells = %d, want 12", len(table.Cells))
	}
	for _, c := range table.Cells {
		if c.Runs+c.Failures != table.Units {
			t.Errorf("cell %v/%v: runs+failures = %d, want %d", c.Algorithm, c.CostType, c.Runs+c.Failures, table.Units)
		}
		if c.Runs > 0 && (c.ANER < 0 || c.ACRE < 0 || c.AvgRuntimeS < 0) {
			t.Errorf("cell %v/%v has negative stats: %+v", c.Algorithm, c.CostType, c)
		}
		// With unlimited budget on a connected city, attacks must succeed.
		if c.Failures > 0 {
			t.Errorf("cell %v/%v: %d failures with unlimited budget", c.Algorithm, c.CostType, c.Failures)
		}
	}

	// Paper shape: ACRE is non-decreasing UNIFORM -> LANES for every
	// algorithm (LANES counts lanes >= 1 per edge).
	for _, alg := range core.Algorithms() {
		u := table.Cell(alg, roadnet.CostUniform)
		l := table.Cell(alg, roadnet.CostLanes)
		if u == nil || l == nil {
			t.Fatalf("missing cells for %v", alg)
		}
		if l.ACRE+1e-9 < u.ACRE {
			t.Errorf("%v: ACRE(LANES) %.2f < ACRE(UNIFORM) %.2f", alg, l.ACRE, u.ACRE)
		}
	}
	// UNIFORM: ACRE equals ANER by definition.
	for _, alg := range core.Algorithms() {
		c := table.Cell(alg, roadnet.CostUniform)
		if c.Runs > 0 && absDiff(c.ANER, c.ACRE) > 1e-9 {
			t.Errorf("%v UNIFORM: ANER %.3f != ACRE %.3f", alg, c.ANER, c.ACRE)
		}
	}
	// PathCover algorithms must not be more expensive than the naive ones
	// on average under UNIFORM cost.
	lp := table.Cell(core.AlgLPPathCover, roadnet.CostUniform)
	ge := table.Cell(core.AlgGreedyEdge, roadnet.CostUniform)
	if lp.ACRE > ge.ACRE+1e-9 {
		t.Errorf("LP-PathCover ACRE %.2f > GreedyEdge ACRE %.2f", lp.ACRE, ge.ACRE)
	}
}

func TestRunTableWithBudgetRecordsFailures(t *testing.T) {
	spec := smallSpec()
	spec.Budget = 1e-6 // nothing is affordable
	table, err := runTable(spec)
	if err != nil {
		t.Fatalf("runTable: %v", err)
	}
	failures := 0
	for _, c := range table.Cells {
		failures += c.Failures
		// Runs either succeeded with zero cuts (p* already exclusive) or
		// failed; any successful run must respect the budget.
		if c.Runs > 0 && c.ACRE > spec.Budget {
			t.Errorf("cell %v/%v ACRE %.9f exceeds budget", c.Algorithm, c.CostType, c.ACRE)
		}
	}
	if failures == 0 {
		t.Error("no failures with near-zero budget")
	}
}

func TestRunTableOnPrebuiltNetwork(t *testing.T) {
	spec := smallSpec()
	net, err := citygen.Build(citygen.Chicago, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net = net
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	table, err := runTable(spec)
	if err != nil {
		t.Fatalf("runTable: %v", err)
	}
	if table.City != "Chicago" {
		t.Errorf("city = %q, want Chicago (prebuilt net)", table.City)
	}
	if len(table.Cells) != 1 {
		t.Errorf("cells = %d, want 1", len(table.Cells))
	}
}

func TestAggregateTableIX(t *testing.T) {
	tables := []Table{
		{
			City:       "Boston",
			WeightType: roadnet.WeightLength,
			Cells: []Cell{
				{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostUniform, ANER: 4, ACRE: 4, Runs: 1},
				{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostLanes, ANER: 6, ACRE: 8, Runs: 1},
			},
		},
		{
			City:       "Boston",
			WeightType: roadnet.WeightTime,
			Cells: []Cell{
				{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostUniform, ANER: 3, ACRE: 3, Runs: 1},
				{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostLanes, ANER: 5, ACRE: 7, Runs: 1},
				{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostWidth, ANER: 0, ACRE: 0, Runs: 0}, // excluded
			},
		},
	}
	rows := Aggregate(tables)
	if len(rows) != 1 || rows[0].City != "Boston" {
		t.Fatalf("rows = %+v", rows)
	}
	if got := rows[0].ANER[roadnet.WeightLength]; got != 5 {
		t.Errorf("LENGTH ANER = %v, want 5", got)
	}
	if got := rows[0].ACRE[roadnet.WeightTime]; got != 5 {
		t.Errorf("TIME ACRE = %v, want 5", got)
	}
}

func TestRunThreshold(t *testing.T) {
	spec := smallSpec()
	spec.PathRank = 6
	row, err := RunThreshold(spec)
	if err != nil {
		t.Fatalf("RunThreshold: %v", err)
	}
	if row.City != "Boston" {
		t.Errorf("city = %q", row.City)
	}
	if row.AvgInc100 < 0 || row.AvgInc200 < row.AvgInc100 {
		t.Errorf("threshold row = %+v, want 0 <= inc(k) <= inc(2k)", row)
	}
	if row.Pairs == 0 {
		t.Error("no pairs measured")
	}
}

func TestRunThresholdNoHospitals(t *testing.T) {
	spec := smallSpec()
	spec.Net = roadnet.NewNetwork("bare")
	if _, err := RunThreshold(spec); !errors.Is(err, ErrNoHospitals) {
		t.Errorf("err = %v, want ErrNoHospitals", err)
	}
}

func TestRenderers(t *testing.T) {
	spec := smallSpec()
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge, core.AlgGreedyEig}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform, roadnet.CostWidth}
	table, err := runTable(spec)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Boston", "TIME", "GreedyEdge", "GreedyEig", "UNIFORM", "WIDTH", "Runtime(ms)", "ANER", "ACRE"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}

	// Runtime prints in milliseconds: a 1.5 ms cell reads 1.500.
	sb.Reset()
	ms := Table{City: "M", WeightType: roadnet.WeightTime, Cells: []Cell{
		{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostUniform, AvgRuntimeS: 0.0015, ANER: 2, ACRE: 3, Runs: 1},
	}}
	ms.Render(&sb)
	if want := "GreedyEdge        |       1.500     2.00     3.00"; !strings.Contains(sb.String(), want) {
		t.Errorf("runtime not rendered in milliseconds, want line %q:\n%s", want, sb.String())
	}

	sb.Reset()
	RenderTableI(&sb, []metrics.GraphSummary{{Name: "X", Nodes: 1, Edges: 2, AvgNodeDegree: 4}})
	if !strings.Contains(sb.String(), "Table I") {
		t.Error("Table I render missing header")
	}

	sb.Reset()
	RenderTableIX(&sb, Aggregate([]Table{table}))
	if !strings.Contains(sb.String(), "Boston") {
		t.Error("Table IX render missing city")
	}

	// Los Angeles has only a TIME table: its LENGTH pair prints dashes.
	sb.Reset()
	la := Table{City: "Los Angeles", WeightType: roadnet.WeightTime, Cells: []Cell{
		{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostUniform, ANER: 2, ACRE: 3, Runs: 1},
	}}
	RenderTableIX(&sb, Aggregate([]Table{la}))
	if want := "Los Angeles     |        —        — |     2.00     3.00"; !strings.Contains(sb.String(), want) {
		t.Errorf("Table IX render wrong, want line %q:\n%s", want, sb.String())
	}

	sb.Reset()
	RenderTableX(&sb, []ThresholdRow{{City: "Boston", AvgInc100: 7.9, AvgInc200: 9.5}}, 100)
	if !strings.Contains(sb.String(), "7.90%") {
		t.Errorf("Table X render wrong:\n%s", sb.String())
	}

	// Rendering a cell with zero runs prints dashes.
	empty := Table{City: "E", WeightType: roadnet.WeightTime, Cells: []Cell{
		{Algorithm: core.AlgGreedyEdge, CostType: roadnet.CostUniform, Runs: 0},
	}}
	sb.Reset()
	empty.Render(&sb)
	if !strings.Contains(sb.String(), "-") {
		t.Error("zero-run cell not dashed")
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
