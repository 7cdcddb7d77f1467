package cer

import (
	"github.com/datacron-project/datacron/internal/model"
)

// Snapshot/restore support for the durable serving layer. A recognizer's
// open partial matches are part of a pipeline snapshot so that a pattern
// spanning the snapshot cut (e.g. a loitering window half-elapsed at the
// crash) still completes after recovery, and so that an already-emitted
// detection is not emitted (and stored) a second time by the tail replay.

// RunState is the exported form of one partial match.
type RunState struct {
	StepIdx     int            `json:"stepIdx"`
	StartTS     int64          `json:"startTS"`
	StepStartTS int64          `json:"stepStartTS"`
	LastTS      int64          `json:"lastTS"`
	Emitted     bool           `json:"emitted"`
	Where       model.Position `json:"where"`
}

// RecognizerState maps stream key to its open partial matches.
type RecognizerState map[string][]RunState

// ExportState returns a copy of the recognizer's open runs.
func (r *Recognizer) ExportState() RecognizerState {
	out := make(RecognizerState, len(r.runs))
	for k, runs := range r.runs {
		rs := make([]RunState, len(runs))
		for i, ru := range runs {
			rs[i] = RunState{
				StepIdx: ru.stepIdx, StartTS: ru.startTS, StepStartTS: ru.stepStartTS,
				LastTS: ru.lastTS, Emitted: ru.emitted, Where: ru.where,
			}
		}
		out[k] = rs
	}
	return out
}

// RestoreState replaces the recognizer's open runs with st.
func (r *Recognizer) RestoreState(st RecognizerState) {
	r.runs = make(map[string][]run, len(st))
	for k, rs := range st {
		runs := make([]run, len(rs))
		for i, s := range rs {
			runs[i] = run{
				stepIdx: s.StepIdx, startTS: s.StartTS, stepStartTS: s.StepStartTS,
				lastTS: s.LastTS, emitted: s.Emitted, where: s.Where,
			}
		}
		r.runs[k] = runs
	}
}

// PairerState is the exported form of the proximity pairer. The spatial
// grid membership is not exported: it is derivable from Last and rebuilt
// on restore.
type PairerState struct {
	Last map[string]model.Position `json:"last"`
}

// ExportState returns a copy of the pairer's state.
func (pr *Pairer) ExportState() PairerState {
	st := PairerState{Last: make(map[string]model.Position, len(pr.last))}
	for k, v := range pr.last {
		st.Last[k] = v
	}
	return st
}

// RestoreState replaces the pairer's state with st, rebuilding the grid
// membership index from the last-position map.
func (pr *Pairer) RestoreState(st PairerState) {
	pr.last = make(map[string]model.Position, len(st.Last))
	pr.cellOf = make(map[string]int, len(st.Last))
	pr.members = make(map[int]map[string]struct{})
	for id, p := range st.Last {
		pr.last[id] = p
		cell := pr.grid.CellID(p.Pt)
		pr.cellOf[id] = cell
		if pr.members[cell] == nil {
			pr.members[cell] = make(map[string]struct{})
		}
		pr.members[cell][id] = struct{}{}
	}
}

// SuiteState is the exported operator state of a MaritimeSuite. Entry
// recognizers are keyed by their pattern name ("areaEntry:NAME"), so a
// suite rebuilt from the same areas re-attaches each entry's runs.
type SuiteState struct {
	Loitering  RecognizerState            `json:"loitering"`
	Rendezvous RecognizerState            `json:"rendezvous"`
	Entries    map[string]RecognizerState `json:"entries"`
	GapLast    map[string]model.Position  `json:"gapLast"`
	Pairer     PairerState                `json:"pairer"`
}

// ExportState returns a copy of the whole suite's operator state.
func (s *MaritimeSuite) ExportState() SuiteState {
	st := SuiteState{
		Loitering:  s.Loitering.ExportState(),
		Rendezvous: s.Rendezvous.ExportState(),
		Entries:    make(map[string]RecognizerState, len(s.Entries)),
		GapLast:    make(map[string]model.Position, len(s.Gap.last)),
		Pairer:     s.Pairer.ExportState(),
	}
	for _, rec := range s.Entries {
		st.Entries[rec.pat.Name] = rec.ExportState()
	}
	for k, v := range s.Gap.last {
		st.GapLast[k] = v
	}
	return st
}

// RestoreState replaces the suite's operator state with st. The suite must
// have been built from the same areas (entry recognizers are matched by
// pattern name; unmatched entries start empty).
func (s *MaritimeSuite) RestoreState(st SuiteState) {
	s.Loitering.RestoreState(st.Loitering)
	s.Rendezvous.RestoreState(st.Rendezvous)
	for _, rec := range s.Entries {
		if es, ok := st.Entries[rec.pat.Name]; ok {
			rec.RestoreState(es)
		}
	}
	s.Gap.last = make(map[string]model.Position, len(st.GapLast))
	for k, v := range st.GapLast {
		s.Gap.last[k] = v
	}
	s.Pairer.RestoreState(st.Pairer)
}
