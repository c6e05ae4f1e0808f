package check

import (
	"mdes/internal/lowlevel"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// ProbePlan is the flat-plan checker backend: a thin adapter over
// probeplan.Prober. Consumers that know they hold this backend use Prober
// directly — the devirtualized path resctx.Context takes.
//
// Selections borrow their Chosen slices from the prober's arena and stay
// valid only until the next Reset; the schedulers and the query layer
// both reset per unit of work, so this is invisible to them, but callers
// must not retain Selections across Resets.
type ProbePlan struct {
	pp *probeplan.Prober
}

// NewProbePlan returns a probe-plan checker over the compiled plan.
func NewProbePlan(plan *probeplan.Plan) *ProbePlan {
	return &ProbePlan{pp: probeplan.NewProber(plan)}
}

// Prober exposes the underlying flat prober for devirtualized hot paths.
func (p *ProbePlan) Prober() *probeplan.Prober { return p.pp }

// Check implements Checker.
func (p *ProbePlan) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	sel, ok := p.pp.Check(con, issue, c)
	return Selection{Selection: sel}, ok
}

// Reserve implements Checker.
func (p *ProbePlan) Reserve(sel Selection) { p.pp.Reserve(sel.Selection) }

// Release implements Checker.
func (p *ProbePlan) Release(sel Selection) { p.pp.Release(sel.Selection) }

// Reset implements Checker.
func (p *ProbePlan) Reset() { p.pp.Reset() }

// Capabilities implements Checker.
func (p *ProbePlan) Capabilities() Capabilities { return Caps(KindProbePlan) }

var _ Checker = (*ProbePlan)(nil)
