// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  Aᵢ·x {≥,≤,=} bᵢ   for every row i
//	            x ≥ 0
//
// It exists to support the LP-PathCover attack algorithm, whose relaxed
// weighted Set Cover instances are small (one variable per candidate edge,
// one covering row per generated constraint path), so a dense tableau with
// Bland's anti-cycling rule is simple, exact enough, and fast enough.
// The solver is standalone and fully tested against brute-force oracles.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"altroute/internal/faultinject"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	GE Sense = iota + 1 // Aᵢ·x ≥ bᵢ
	LE                  // Aᵢ·x ≤ bᵢ
	EQ                  // Aᵢ·x = bᵢ
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case GE:
		return ">="
	case LE:
		return "<="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is one row of the program.
type Constraint struct {
	// Coeffs has one entry per variable. Missing trailing entries are
	// treated as zero.
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program over n non-negative variables.
type Problem struct {
	// Objective holds the minimization coefficients, one per variable.
	Objective []float64
	// Rows are the constraints.
	Rows []Constraint
	// MaxPivots bounds the simplex pivots per phase; a solve that exhausts
	// the budget reports Infeasible (numerically stuck) rather than looping.
	// 0 uses the package default (200000).
	MaxPivots int
}

// Status reports how solving ended.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the solver output. X and Objective are meaningful only when
// Status == Optimal.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

// ErrBadProblem is returned for structurally invalid programs.
var ErrBadProblem = errors.New("lp: invalid problem")

// ErrInterrupted is returned by SolveCtx when the context is done before
// the solve completes; the context's cause is wrapped alongside it.
var ErrInterrupted = errors.New("lp: solve interrupted")

const (
	eps           = 1e-9
	maxPivots     = 200000
	phase1FeasEps = 1e-7
)

// Solve runs two-phase simplex on p.
func Solve(p Problem) (Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx runs two-phase simplex on p with cooperative cancellation: the
// pivot loop polls ctx every few dozen pivots and aborts with an
// ErrInterrupted-wrapped error (carrying context.Cause) when it is done.
// Long-running solves are thereby bounded both by the caller's deadline and
// by the hard MaxPivots guard.
func SolveCtx(ctx context.Context, p Problem) (Solution, error) {
	if err := faultinject.Fire(ctx, faultinject.PointLPSolve); err != nil {
		return Solution{}, err
	}
	n := len(p.Objective)
	if n == 0 {
		return Solution{}, fmt.Errorf("%w: no variables", ErrBadProblem)
	}
	for i, row := range p.Rows {
		if len(row.Coeffs) > n {
			return Solution{}, fmt.Errorf("%w: row %d has %d coefficients for %d variables", ErrBadProblem, i, len(row.Coeffs), n)
		}
		switch row.Sense {
		case GE, LE, EQ:
		default:
			return Solution{}, fmt.Errorf("%w: row %d has invalid sense", ErrBadProblem, i)
		}
		for _, c := range row.Coeffs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return Solution{}, fmt.Errorf("%w: row %d has non-finite coefficient", ErrBadProblem, i)
			}
		}
		if math.IsNaN(row.RHS) || math.IsInf(row.RHS, 0) {
			return Solution{}, fmt.Errorf("%w: row %d has non-finite RHS", ErrBadProblem, i)
		}
	}
	for j, c := range p.Objective {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return Solution{}, fmt.Errorf("%w: objective coefficient %d non-finite", ErrBadProblem, j)
		}
	}

	t := newTableau(p)
	pivotBudget := p.MaxPivots
	if pivotBudget <= 0 {
		pivotBudget = maxPivots
	}
	if t.numArtificial > 0 {
		status, err := t.runPhase1(ctx, pivotBudget)
		if err != nil {
			return Solution{}, err
		}
		if status != Optimal {
			return Solution{Status: status}, nil
		}
		if t.phase1Objective() > phase1FeasEps {
			return Solution{Status: Infeasible}, nil
		}
		t.dropArtificials()
	}
	status, err := t.runPhase2(ctx, pivotBudget)
	if err != nil {
		return Solution{}, err
	}
	if status != Optimal {
		return Solution{Status: status}, nil
	}
	x := t.extract(n)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// tableau is the dense simplex tableau. Columns are ordered: the n original
// variables, then one slack/surplus per row, then artificials. Row i of a
// holds the constraint coefficients; b holds the (non-negative) RHS.
type tableau struct {
	m, n          int // rows, original variables
	numSlack      int
	numArtificial int
	cols          int

	a     [][]float64
	b     []float64
	basis []int // basis[i] = column basic in row i

	cost  []float64 // phase-2 objective per column
	art   []bool    // column is artificial
	alive []bool    // column still eligible (artificials are retired)
}

func newTableau(p Problem) *tableau {
	m := len(p.Rows)
	n := len(p.Objective)
	t := &tableau{m: m, n: n}

	// Normalize rows to RHS ≥ 0 (negating flips the sense).
	type normRow struct {
		coeffs []float64
		sense  Sense
		rhs    float64
	}
	rows := make([]normRow, m)
	for i, r := range p.Rows {
		coeffs := make([]float64, n)
		copy(coeffs, r.Coeffs)
		sense := r.Sense
		rhs := r.RHS
		if rhs < 0 {
			for j := range coeffs {
				coeffs[j] = -coeffs[j]
			}
			rhs = -rhs
			switch sense {
			case GE:
				sense = LE
			case LE:
				sense = GE
			}
		}
		rows[i] = normRow{coeffs: coeffs, sense: sense, rhs: rhs}
	}

	// Count auxiliary columns. LE rows get a slack that can start basic;
	// GE rows get a surplus plus an artificial; EQ rows get an artificial.
	for _, r := range rows {
		switch r.sense {
		case LE, GE:
			t.numSlack++
		}
		if r.sense != LE {
			t.numArtificial++
		}
	}
	t.cols = n + t.numSlack + t.numArtificial

	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	t.basis = make([]int, m)
	t.cost = make([]float64, t.cols)
	t.art = make([]bool, t.cols)
	t.alive = make([]bool, t.cols)
	for j := range t.alive {
		t.alive[j] = true
	}
	copy(t.cost, p.Objective)

	slackCol := n
	artCol := n + t.numSlack
	for i, r := range rows {
		row := make([]float64, t.cols)
		copy(row, r.coeffs)
		t.b[i] = r.rhs
		switch r.sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.art[artCol] = true
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.art[artCol] = true
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
	}
	return t
}

// pivot performs a standard pivot bringing column `enter` into the basis at
// row `leave`.
func (t *tableau) pivot(leave, enter int) {
	pr := t.a[leave]
	pv := pr[enter]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	t.b[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		t.b[i] -= f * t.b[leave]
	}
	t.basis[leave] = enter
}

// iterate runs simplex iterations with Bland's rule until optimality or
// unboundedness for the given objective. ctx is polled every 64 pivots: the
// check costs one atomic load, negligible next to a dense pivot, yet bounds
// cancellation latency to a handful of pivots.
func (t *tableau) iterate(ctx context.Context, obj []float64, maxPivots int) (Status, error) {
	// Rows whose basic column has a non-zero objective coefficient: only
	// they contribute to a reduced cost.
	costRows := make([]int, 0, t.m)
	costs := make([]float64, 0, t.m)
	for pivots := 0; pivots < maxPivots; pivots++ {
		if pivots&63 == 0 && ctx.Err() != nil {
			return 0, fmt.Errorf("%w: %w", ErrInterrupted, context.Cause(ctx))
		}
		costRows, costs = costRows[:0], costs[:0]
		for i := 0; i < t.m; i++ {
			cb := obj[t.basis[i]]
			if cb != 0 {
				costRows = append(costRows, i)
				costs = append(costs, cb)
			}
		}
		// Bland: the lowest-index column with a reduced cost below -eps
		// enters. The tableau is kept in canonical form (basis columns are
		// unit vectors), so the reduced cost of column j is
		// obj[j] - Σ_i obj[basis[i]] * a[i][j]; columns past the entering
		// one are never priced.
		enter := -1
		for j := 0; j < t.cols; j++ {
			if !t.alive[j] {
				continue
			}
			v := obj[j]
			for k, i := range costRows {
				v -= costs[k] * t.a[i][j]
			}
			if v < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return Optimal, nil
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
			return Unbounded, nil
		}
		t.pivot(leave, enter)
	}
	// Pivot budget exhausted: numerically stuck. Treat as infeasible
	// rather than looping forever; callers fall back to greedy rounding.
	return Infeasible, nil
}

// runPhase1 minimizes the sum of artificial variables.
func (t *tableau) runPhase1(ctx context.Context, maxPivots int) (Status, error) {
	obj := make([]float64, t.cols)
	for j, isArt := range t.art {
		if isArt {
			obj[j] = 1
		}
	}
	status, err := t.iterate(ctx, obj, maxPivots)
	if err != nil {
		return 0, err
	}
	if status == Unbounded {
		// Phase 1 objective is bounded below by 0; unbounded here means a
		// numerical breakdown. Report infeasible.
		return Infeasible, nil
	}
	return status, nil
}

// phase1Objective returns the current value of the phase-1 objective.
func (t *tableau) phase1Objective() float64 {
	v := 0.0
	for i, col := range t.basis {
		if t.art[col] {
			v += t.b[i]
		}
	}
	return v
}

// dropArtificials retires artificial columns, pivoting basic artificials
// out of the basis first when possible (degenerate rows keep a zero-valued
// artificial basic; that is harmless once the column is marked dead and its
// row is all that is left).
func (t *tableau) dropArtificials() {
	for i := 0; i < t.m; i++ {
		if !t.art[t.basis[i]] {
			continue
		}
		// Find any alive non-artificial column with a non-zero pivot.
		for j := 0; j < t.n+t.numSlack; j++ {
			if t.alive[j] && math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
	}
	for j, isArt := range t.art {
		if isArt {
			t.alive[j] = false
		}
	}
}

// runPhase2 minimizes the real objective.
func (t *tableau) runPhase2(ctx context.Context, maxPivots int) (Status, error) {
	obj := make([]float64, t.cols)
	copy(obj, t.cost)
	return t.iterate(ctx, obj, maxPivots)
}

// extract reads the first n variable values out of the basis.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i, col := range t.basis {
		if col < n {
			v := t.b[i]
			if v < 0 && v > -eps {
				v = 0
			}
			x[col] = v
		}
	}
	return x
}
