package crowdrank

import (
	"fmt"
	"io"
	"math/rand/v2"

	"crowdrank/internal/graph"
	"crowdrank/internal/platform"
	"crowdrank/internal/taskgen"
)

// Pair identifies one pairwise comparison task between objects I and J
// (object ids are 0-based indices; pairs are canonical with I < J). It
// prints as (I,J).
type Pair = graph.Pair

// Budget models the requester's money: each of the l unique comparisons is
// answered by WorkersPerTask workers, each paid Reward, so MaxTasks is
// l = floor(Total / (WorkersPerTask * Reward)) and Cost(l) the money l
// comparisons spend.
type Budget = platform.Budget

// HIT is a batch of comparisons released to a single worker as one unit:
// its ID and its Pairs.
type HIT = platform.HIT

// Plan is a generated task assignment: l comparison tasks over n objects
// forming a fair, high-HP-likelihood task graph.
type Plan struct {
	// N is the number of objects; L the number of comparison tasks.
	N, L int
	// Pairs lists the comparison tasks in canonical order.
	Pairs []Pair
	// SeedPath is the Hamiltonian path the task graph was seeded with.
	SeedPath []int
	// TargetDegree is the per-object degree 2L/N the fairness requirement
	// aims for.
	TargetDegree int

	taskGraph *graph.TaskGraph
}

// PlanTasks generates a task assignment with exactly l comparison tasks
// over n objects (Algorithm 1). seed makes generation reproducible.
func PlanTasks(n, l int, seed uint64) (*Plan, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	tp, err := taskgen.Generate(n, l, rng)
	if err != nil {
		return nil, err
	}
	return &Plan{
		N:            n,
		L:            tp.L,
		Pairs:        tp.Pairs(),
		SeedPath:     tp.SeedPath,
		TargetDegree: tp.TargetDegree,
		taskGraph:    tp.Graph,
	}, nil
}

// PlanTasksRatio generates a task assignment covering the given selection
// ratio r of all C(n,2) pairs (the paper's budget parameterization).
func PlanTasksRatio(n int, ratio float64, seed uint64) (*Plan, error) {
	l, err := taskgen.PairsForRatio(n, ratio)
	if err != nil {
		return nil, err
	}
	return PlanTasks(n, l, seed)
}

// PlanTasksBudget generates a task assignment affordable under the budget.
func PlanTasksBudget(n int, b Budget, seed uint64) (*Plan, error) {
	l, err := b.MaxTasks()
	if err != nil {
		return nil, err
	}
	if max := taskgen.MaxPairs(n); l > max {
		l = max
	}
	return PlanTasks(n, l, seed)
}

// Degrees returns the task-graph degree of every object; fairness means
// these are (near-)equal.
func (p *Plan) Degrees() []int { return p.taskGraph.Degrees() }

// FairnessProbability returns, per object, the probability 2/3^d of being
// forced to the extreme of the ranking (Equation 2); fair plans make this
// uniform.
func (p *Plan) FairnessProbability() []float64 {
	ds := p.taskGraph.Degrees()
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = taskgen.InOutProbability(d)
	}
	return out
}

// HPLikelihoodLowerBound returns the Theorem 4.4 lower bound Pr_l for this
// plan's degree range.
func (p *Plan) HPLikelihoodLowerBound() (float64, error) {
	dmin, dmax := p.taskGraph.MinMaxDegree()
	return taskgen.HPLikelihoodLowerBound(p.N, dmin, dmax)
}

// PackHITs splits the plan's tasks into HITs of at most perHIT comparisons.
func (p *Plan) PackHITs(perHIT int) ([]HIT, error) {
	return platform.PackHITs(p.Pairs, perHIT)
}

// Validate checks structural invariants of the plan: connectivity (without
// it no full ranking is recoverable, Theorem 4.2) and the presence of the
// seed Hamiltonian path.
func (p *Plan) Validate() error {
	if !p.taskGraph.Connected() {
		return fmt.Errorf("crowdrank: plan's task graph is disconnected")
	}
	if !p.taskGraph.IsHamiltonianPath(p.SeedPath) {
		return fmt.Errorf("crowdrank: plan lost its seed Hamiltonian path")
	}
	if p.taskGraph.M() != p.L {
		return fmt.Errorf("crowdrank: plan has %d edges, expected %d", p.taskGraph.M(), p.L)
	}
	return nil
}

// WriteDOT renders the plan's task graph in Graphviz DOT format for visual
// inspection of the assignment (vertex labels carry degrees, so fairness is
// visible at a glance).
func (p *Plan) WriteDOT(w io.Writer) error {
	return p.taskGraph.WriteDOT(w, "task_graph")
}
