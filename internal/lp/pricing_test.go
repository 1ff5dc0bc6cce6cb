package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveFullPricing is the reference for the lazy Bland pricing in iterate:
// the same two-phase simplex, but each pivot first computes every alive
// column's reduced cost, then the lowest index below -eps enters. It takes
// only valid programs and runs without a context.
func solveFullPricing(p Problem) Solution {
	t := newTableau(p)
	budget := p.MaxPivots
	if budget <= 0 {
		budget = maxPivots
	}
	if t.numArtificial > 0 {
		obj := make([]float64, t.cols)
		for j, isArt := range t.art {
			if isArt {
				obj[j] = 1
			}
		}
		status := t.iterateFullPricing(obj, budget)
		if status == Unbounded {
			status = Infeasible
		}
		if status != Optimal {
			return Solution{Status: status}
		}
		if t.phase1Objective() > phase1FeasEps {
			return Solution{Status: Infeasible}
		}
		t.dropArtificials()
	}
	obj := make([]float64, t.cols)
	copy(obj, t.cost)
	if status := t.iterateFullPricing(obj, budget); status != Optimal {
		return Solution{Status: status}
	}
	n := len(p.Objective)
	x := t.extract(n)
	v := 0.0
	for j := 0; j < n; j++ {
		v += p.Objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: v}
}

func (t *tableau) iterateFullPricing(obj []float64, maxPivots int) Status {
	for pivots := 0; pivots < maxPivots; pivots++ {
		rc := make([]float64, t.cols)
		for j := 0; j < t.cols; j++ {
			if !t.alive[j] {
				rc[j] = math.Inf(1)
				continue
			}
			v := obj[j]
			for i := 0; i < t.m; i++ {
				cb := obj[t.basis[i]]
				if cb != 0 {
					v -= cb * t.a[i][j]
				}
			}
			rc[j] = v
		}
		enter := -1
		for j := 0; j < t.cols; j++ {
			if t.alive[j] && rc[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > eps {
				ratio := t.b[i] / aij
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return Infeasible
}

// assertSameAsFullPricing checks that Solve returns the reference's Status
// and the same bits of X and Objective.
func assertSameAsFullPricing(t *testing.T, name string, p Problem) {
	t.Helper()
	got, err := Solve(p)
	if err != nil {
		t.Fatalf("%s: Solve: %v", name, err)
	}
	want := solveFullPricing(p)
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, reference %v", name, got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: objective %v, reference %v", name, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d values, reference %d", name, len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Errorf("%s: x[%d] = %v, reference %v", name, j, got.X[j], want.X[j])
		}
	}
}

func TestLazyPricingMatchesFullPricingOnFixedPrograms(t *testing.T) {
	programs := map[string]Problem{
		"le-and-eq": {
			Objective: []float64{-1, -1},
			Rows: []Constraint{
				{Coeffs: []float64{1, 1}, Sense: LE, RHS: 4},
				{Coeffs: []float64{1, 0}, Sense: EQ, RHS: 1},
			},
		},
		"degenerate": {
			Objective: []float64{1, 1},
			Rows: []Constraint{
				{Coeffs: []float64{1, 1}, Sense: GE, RHS: 1},
				{Coeffs: []float64{1, 1}, Sense: GE, RHS: 1},
				{Coeffs: []float64{2, 2}, Sense: GE, RHS: 2},
			},
		},
		"fractional-triangle": {
			Objective: []float64{1, 1, 1},
			Rows: []Constraint{
				{Coeffs: []float64{1, 1, 0}, Sense: GE, RHS: 1},
				{Coeffs: []float64{0, 1, 1}, Sense: GE, RHS: 1},
				{Coeffs: []float64{1, 0, 1}, Sense: GE, RHS: 1},
			},
		},
		"infeasible": {
			Objective: []float64{1},
			Rows: []Constraint{
				{Coeffs: []float64{1}, Sense: GE, RHS: 2},
				{Coeffs: []float64{1}, Sense: LE, RHS: 1},
			},
		},
		"unbounded": {
			Objective: []float64{-1},
			Rows:      []Constraint{{Coeffs: []float64{1}, Sense: GE, RHS: 0}},
		},
		"beale-cycling": {
			Objective: []float64{-0.75, 150, -0.02, 6},
			Rows: []Constraint{
				{Coeffs: []float64{0.25, -60, -0.04, 9}, Sense: LE, RHS: 0},
				{Coeffs: []float64{0.5, -90, -0.02, 3}, Sense: LE, RHS: 0},
				{Coeffs: []float64{0, 0, 1, 0}, Sense: LE, RHS: 1},
			},
		},
		"klee-minty": {
			Objective: []float64{-4, -2, -1},
			Rows: []Constraint{
				{Coeffs: []float64{1, 0, 0}, Sense: LE, RHS: 5},
				{Coeffs: []float64{4, 1, 0}, Sense: LE, RHS: 25},
				{Coeffs: []float64{8, 4, 1}, Sense: LE, RHS: 125},
			},
		},
	}
	for name, p := range programs {
		assertSameAsFullPricing(t, name, p)
	}
}

// TestLazyPricingMatchesFullPricingOnCoverLPs runs the covering programs
// LP-PathCover builds (0/1 rows, >= 1, positive costs with many ties) and
// random mixed-sense programs.
func TestLazyPricingMatchesFullPricingOnCoverLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	widths := []float64{3.5, 7.3, 10.95, 14.6}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(25)
		m := 1 + rng.Intn(20)
		p := Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			switch trial % 3 {
			case 0:
				p.Objective[j] = 1
			case 1:
				p.Objective[j] = widths[rng.Intn(len(widths))]
			default:
				p.Objective[j] = 0.5 + 10*rng.Float64()
			}
		}
		for i := 0; i < m; i++ {
			coeffs := make([]float64, n)
			for k := 1 + rng.Intn(6); k > 0; k-- {
				coeffs[rng.Intn(n)] = 1
			}
			p.Rows = append(p.Rows, Constraint{Coeffs: coeffs, Sense: GE, RHS: 1})
		}
		assertSameAsFullPricing(t, "cover", p)
	}
	senses := []Sense{GE, LE, EQ}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		p := Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = float64(rng.Intn(9) - 4)
		}
		for i := rng.Intn(5); i >= 0; i-- {
			coeffs := make([]float64, n)
			for j := range coeffs {
				coeffs[j] = float64(rng.Intn(7) - 2)
			}
			p.Rows = append(p.Rows, Constraint{Coeffs: coeffs, Sense: senses[rng.Intn(3)], RHS: float64(rng.Intn(11) - 3)})
		}
		assertSameAsFullPricing(t, "mixed", p)
	}
}
