package core

import (
	"fmt"
)

// Snapshot kinds, matching the -planner CLI vocabulary for the
// planners that can be pool-served.
const (
	KindGreedy     = "greedy"
	KindLPNoFilter = "lp-lf"
	KindLPFilter   = "lp+lf"
	KindProof      = "proof"
)

// Snapshot is a frozen, shareable parametric-planning state: the
// sample window deep-copied at a fixed generation, plus the planner's
// parametric LP built once from it. It is the concurrency bridge
// between the single-goroutine planners (//confine:goroutine, warm
// basis chains keyed on sample generation) and a serving tier: the
// snapshot itself is immutable and safe for concurrent use, and
// NewPlanner stamps out independent planners — each with its own
// model clone, lp.Workspace, and warm chain — that workers own
// exclusively.
//
// Freezing matters twice over. First, the live sample window keeps
// sliding (Set.Add mutates in place, bumping Gen), which would
// invalidate every cached program mid-flight; the clone's generation
// never moves, so a pooled planner's chain stays warm for the
// snapshot's lifetime. Second, the paper's planners are only
// meaningful against one coherent sample matrix — two requests served
// from different windows are answers to different questions, so the
// pool keys requests by the generation captured here (Gen).
//
// Planners stamped from one snapshot share the frozen samples, the
// network, and the costs — all read-only — but never LP state: the
// model is cloned per planner (lp.Model.Clone; a Basis is
// pointer-keyed to its model, so chains cannot cross), and the
// workspace is fresh. Each planner pays one cold solve to open its
// chain, then serves every subsequent budget warm.
type Snapshot struct {
	cfg  Config // cfg.Samples is the frozen clone, never mutated again
	kind string
	gen  uint64 // live window generation at freeze time
	lplf lplfProgram
	lpf  lpfilterProgram
	prf  proofProgram
}

// NewSnapshot validates cfg, freezes its sample window, and builds the
// planner kind's parametric program once. The returned snapshot no
// longer references the live sample set; callers may keep mutating it.
// The program's budget row is built with a placeholder right-hand side
// — every planner solve re-points it at the request's budget first.
func NewSnapshot(cfg Config, kind string) (*Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Snapshot{kind: kind, gen: cfg.Samples.Gen()}
	cfg.Samples = cfg.Samples.Clone()
	s.cfg = cfg
	switch kind {
	case KindGreedy:
		// Greedy recomputes from the (frozen) samples per call; there is
		// no parametric program to prebuild.
	case KindLPNoFilter:
		s.lplf = buildLPNoFilterProgram(cfg, 0)
	case KindLPFilter:
		s.lpf = buildLPFilterProgram(cfg, 0)
	case KindProof:
		s.prf = buildProofProgram(cfg, true, 0)
	default:
		return nil, fmt.Errorf("core: unknown snapshot kind %q (want %s, %s, %s, or %s)",
			kind, KindGreedy, KindLPNoFilter, KindLPFilter, KindProof)
	}
	return s, nil
}

// Kind returns the planner kind the snapshot serves.
func (s *Snapshot) Kind() string { return s.kind }

// Gen returns the live sample window's mutation generation at freeze
// time — the pool-key component that distinguishes snapshots of the
// same network as the window slides.
func (s *Snapshot) Gen() uint64 { return s.gen }

// K returns the rank bound the snapshot plans for.
func (s *Snapshot) K() int { return s.cfg.K }

// NewPlanner stamps out an independent planner over the frozen state:
// the prebuilt model is cloned and pre-installed into the planner's
// parametric cache, so its first Plan call skips the program build and
// goes straight to a chain-opening cold solve. Safe to call
// concurrently; the returned planner is //confine:goroutine like any
// other and must be owned by exactly one goroutine.
func (s *Snapshot) NewPlanner() (Planner, error) {
	cfg := s.cfg
	switch s.kind {
	case KindGreedy:
		return NewGreedy(cfg)
	case KindLPNoFilter:
		p, err := NewLPNoFilter(cfg)
		if err != nil {
			return nil, err
		}
		p.prog = s.lplf
		p.param.adopt(cfg, &p.prog.lpProgram)
		return p, nil
	case KindLPFilter:
		p, err := NewLPFilter(cfg)
		if err != nil {
			return nil, err
		}
		p.prog = s.lpf
		p.param.adopt(cfg, &p.prog.lpProgram)
		return p, nil
	case KindProof:
		p, err := NewProofPlanner(cfg)
		if err != nil {
			return nil, err
		}
		p.prog = s.prf
		p.param.adopt(cfg, &p.prog.lpProgram)
		return p, nil
	}
	return nil, fmt.Errorf("core: unknown snapshot kind %q", s.kind)
}
