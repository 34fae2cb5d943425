// Package lp implements the linear-programming substrate of the SVGIC
// library: a dense two-phase primal simplex for exact solutions of small
// models (the role CPLEX/Gurobi play in the paper), an exact projection onto
// the capped simplex, and a scalable structured solver for the condensed
// SVGIC relaxation LP_SIMP (paper §4.4, "Advanced LP Transformation").
package lp

import "fmt"

// Op is a linear-constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // a·x ≤ b
	GE           // a·x ≥ b
	EQ           // a·x = b
)

// Constraint is one sparse row a·x (op) rhs.
type Constraint struct {
	Idx  []int
	Coef []float64
	Op   Op
	RHS  float64
}

// Problem is a linear program in the form
//
//	maximize   c·x
//	subject to a_i·x (op_i) b_i  for every constraint
//	           x ≥ 0
//
// Upper bounds are expressed as explicit ≤ rows by the model builders.
type Problem struct {
	NumVars   int
	Objective []float64
	Rows      []Constraint
}

// NewProblem returns an empty maximization problem over n variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n)}
}

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) { p.Objective[j] = c }

// AddConstraint appends the sparse row Σ coef[i]·x[idx[i]] (op) rhs.
func (p *Problem) AddConstraint(idx []int, coef []float64, op Op, rhs float64) error {
	if len(idx) != len(coef) {
		return fmt.Errorf("lp: index/coefficient length mismatch (%d vs %d)", len(idx), len(coef))
	}
	for _, j := range idx {
		if j < 0 || j >= p.NumVars {
			return fmt.Errorf("lp: variable index %d out of range [0,%d)", j, p.NumVars)
		}
	}
	ci := make([]int, len(idx))
	cc := make([]float64, len(coef))
	copy(ci, idx)
	copy(cc, coef)
	p.Rows = append(p.Rows, Constraint{Idx: ci, Coef: cc, Op: op, RHS: rhs})
	return nil
}

// MustAddConstraint is AddConstraint that panics on malformed input; model
// builders use it with programmatically generated indices.
func (p *Problem) MustAddConstraint(idx []int, coef []float64, op Op, rhs float64) {
	if err := p.AddConstraint(idx, coef, op, rhs); err != nil {
		panic(err)
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}
