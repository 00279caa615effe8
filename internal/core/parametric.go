package core

import (
	"prospector/internal/lp"
)

// tieEps is the deterministic tie-break perturbation the LP builders
// put on objective-neutral variables (bandwidths, and candidate ties).
// The planners' programs are massively degenerate — many optimal
// vertices share one objective value but round to different plans —
// and which vertex a simplex run lands on depends on its pivot path,
// so a warm dual-recovery chain and a cold two-phase run could
// legitimately disagree. Index-distinct epsilons make the optimum a
// unique vertex, so every correct solve path returns the same plan
// (the warm-vs-cold differential tests rely on this). The value must
// exceed the solver's optimality tolerance (1e-7) to be acted on, and
// stay far below the objective's integral gaps (1.0) to never change
// which plans are genuinely optimal.
const tieEps = 1e-5

// paramLP is the cached parametric program behind an LP planner's
// Plan(budget) calls. The figure sweeps hammer one planner with a
// monotone budget axis over fixed (network, samples) state; the only
// thing that changes between calls is the budget row's right-hand
// side. So the planner builds its model once, keeps the solver
// workspace and the optimal basis, and serves each successive budget
// with an in-place SetRHS plus a warm re-solve — dual recovery pivots
// instead of two cold simplex phases, and no model canonicalization
// at all.
//
// The cache is keyed on the sample window's mutation generation
// (sample.Set.Gen): the adaptive runner slides the window in place, so
// any observed mutation rebuilds the program. Under cfg.DisableWarm
// the cache is never fresh, so every Plan call rebuilds and solves
// cold — the reference side of the warm-vs-cold differential tests.
// A paramLP (and therefore any planner holding one) is not safe for
// concurrent use; experiment trials each build their own planners.
//
//confine:goroutine
type paramLP struct {
	prog  lpProgram
	ws    *lp.Workspace
	basis *lp.Basis
	gen   uint64
	built bool
	// own enforces the //confine:goroutine contract dynamically under
	// the prospector_debug build tag; zero-cost otherwise.
	own owner
}

// lpProgram is the budget-parametric part every LP planner's program
// shares; the planners embed it next to what their rounding needs.
type lpProgram struct {
	model *lp.Model
	// budgetRow is the retained index of the cost row, or -1 when the
	// model has no budget row to update (degenerate all-zero costs).
	budgetRow int
	// fixed is the cost already committed before the budget row's
	// variable terms (PROOF's mandatory per-edge messages); the row's
	// rhs is budget - fixed.
	fixed float64
	empty bool // no candidates: no model, the empty plan is optimal
}

// fresh reports whether the cached program still describes cfg's
// sample window and may be re-solved warm.
func (c *paramLP) fresh(cfg Config) bool {
	c.own.assert("parametric planner")
	return c.built && !cfg.DisableWarm && c.gen == cfg.Samples.Gen()
}

// install caches a freshly built program. The workspace survives
// rebuilds (its buffers re-grow at most once per shape); the basis
// chain does not.
func (c *paramLP) install(cfg Config, prog lpProgram) {
	c.prog = prog
	if c.ws == nil {
		c.ws = lp.NewWorkspace()
	}
	c.basis = nil
	c.gen = cfg.Samples.Gen()
	c.built = true
}

// adopt installs a private clone of a prebuilt program (a Snapshot's)
// and points prog at the clone, so the first solve skips the build but
// never shares LP state with another planner.
func (c *paramLP) adopt(cfg Config, prog *lpProgram) {
	if !prog.empty {
		prog.model = prog.model.Clone()
	}
	c.install(cfg, *prog)
}

// solve points the budget row at the new budget and re-solves: warm
// from the chained basis when one exists, cold otherwise (a fresh
// build, which under cfg.DisableWarm is every call). A non-optimal warm
// outcome (an IterationLimit mid-chain, a numerically wedged basis) is
// retried once cold on the same mutated model. The chain keeps the
// final basis, which the solver captures only for an Optimal solve, so
// any other outcome drops it and the next call starts a fresh chain.
// An empty program returns a nil solution.
//
// The steady state — an intact chain served warm, no tracing — is the
// figure sweeps' inner loop and stays off the heap; the blessed call
// edges below mark where the cold and error paths are allowed to
// allocate (TestParametricSolveAllocFree pins the runtime truth).
//
//alloc:none
func (c *paramLP) solve(cfg Config, budget float64) (*lp.Solution, error) {
	c.own.assert("parametric planner")
	if c.prog.empty {
		return nil, nil
	}
	if c.prog.budgetRow >= 0 {
		//alloc:amortized SetRHS writes one float in place; it allocates only to construct an invalid-row error
		if err := c.prog.model.SetRHS(c.prog.budgetRow, budget-c.prog.fixed); err != nil {
			return nil, err
		}
	}
	opts := cfg.lpOptions()
	opts.Workspace = c.ws
	opts.KeepBasis = true
	opts.Warm = c.basis
	//alloc:amortized a chain-opening solve runs cold; warm re-solves reuse the workspace (lp's annotated warm chain, BenchmarkWarmResolveSteadyState)
	sol, err := c.prog.model.Solve(opts)
	if err == nil && sol.Status != lp.Optimal && opts.Warm != nil {
		opts.Warm = nil
		//alloc:amortized chain-break retry runs cold; it never runs in an intact warm chain
		sol, err = c.prog.model.Solve(opts)
	}
	if err != nil {
		return nil, err
	}
	c.basis = sol.Basis
	return sol, nil
}
