// Package probeplan compiles a frozen low-level MDES into a flat probe
// program: every constraint's AND-of-OR-trees is lowered into contiguous
// span arrays of packed probe words that the checker walks by slice
// iteration, with no per-node pointer chasing on the hot path. The
// Prober over a plan is the repository's reservation-table engine: the
// per-cycle resource-usage (RU) map of paper §6 and the check/reserve
// algorithms for OR-trees and AND/OR-trees.
//
// The compilation is a pure re-layout, not a re-optimization: each option
// emits exactly the probe sequence the description already carries — one
// word per CycleMask when the option is bit-vector packed, one single-bit
// word per scalar Usage otherwise — so a Check performs the paper's
// Attempts, OptionsChecked, ResourceChecks and Conflicts accounting of
// the description as optimized. What changes is only where the bytes
// live: spans index into three flat arrays (constraint → trees → options
// → words) instead of `[]*Tree` / `[]*Option` pointer graphs, and the
// reservation window is a single row-major []uint64.
package probeplan

import (
	"fmt"

	"mdes/internal/bitset"
	"mdes/internal/lowlevel"
)

// Word is one packed probe: test Mask against word Widx of the reservation
// row at (issue + Time). For scalar (unpacked) options Mask has exactly one
// bit set; for packed options it is the option's CycleMask verbatim. It is
// an alias of lowlevel.PlanWord — the same probe words are persisted
// verbatim inside the flat arena format (lowlevel.ArenaPlan), so an
// arena-backed description's spans are adopted without conversion.
type Word = lowlevel.PlanWord

// Plan is the compiled probe program for one frozen MDES. It is immutable
// after Compile and shared read-only by any number of Probers.
type Plan struct {
	// NumRes and RowWords size the reservation rows every Prober keeps:
	// RowWords 64-bit words per cycle.
	NumRes   int
	RowWords int

	// Flat span arrays, all half-open index ranges:
	//
	//	constraint ci  → trees   treeStart[conStart[ci]   : conStart[ci+1]]
	//	plan tree  ti  → options optStart[treeStart-range]
	//	plan option oi → words   words[optStart[oi] : optStart[oi+1]]
	//
	// conStart/treeStart/optStart each carry one trailing sentinel so a
	// span's end is always the next entry.
	words     []Word
	optStart  []int32
	treeStart []int32
	conStart  []int32

	// cons is the positional copy of MDES.Constraints the plan was emitted
	// from; probes verify the incoming constraint pointer against it before
	// trusting Constraint.Index.
	cons []*lowlevel.Constraint

	// maxTrees is the widest constraint, sizing per-Prober scratch.
	maxTrees int
}

// Compile lowers a compiled MDES into a flat probe plan. It fails when a
// constraint's recorded Index disagrees with its position in
// m.Constraints — hand-assembled descriptions and sub-MDES views that
// reuse another description's constraint pointers cannot be planned,
// because the probe path maps *Constraint to its spans through that index.
func Compile(m *lowlevel.MDES) (*Plan, error) {
	p := &Plan{
		NumRes:   m.NumResources,
		RowWords: (m.NumResources + bitset.WordBits - 1) / bitset.WordBits,
		cons:     make([]*lowlevel.Constraint, len(m.Constraints)),
	}
	if p.RowWords == 0 {
		p.RowWords = 1
	}
	// Arena-backed descriptions carry their probe plan precompiled
	// (lowlevel.ArenaPlan, persisted in the MDAR buffer and aliased at
	// open): adopt the spans verbatim and skip emission entirely. The
	// constraint-index verification below still runs — the plan's spans
	// are positional, so the same stale-Index contract applies.
	if ap := m.ArenaPlan(); ap != nil && ap.RowWords == p.RowWords {
		for ci, con := range m.Constraints {
			if con.Index != ci {
				return nil, fmt.Errorf("probeplan: constraint %d (%s) carries index %d: description was assembled outside Compile/Decode and cannot be planned",
					ci, con.Name, con.Index)
			}
			p.cons[ci] = con
			if len(con.Trees) > p.maxTrees {
				p.maxTrees = len(con.Trees)
			}
		}
		p.words = ap.Words
		p.optStart = ap.OptStart
		p.treeStart = ap.TreeStart
		p.conStart = ap.ConStart
		return p, nil
	}
	for ci, con := range m.Constraints {
		if con.Index != ci {
			return nil, fmt.Errorf("probeplan: constraint %d (%s) carries index %d: description was assembled outside Compile/Decode and cannot be planned",
				ci, con.Name, con.Index)
		}
		p.cons[ci] = con
		p.conStart = append(p.conStart, int32(len(p.treeStart)))
		if len(con.Trees) > p.maxTrees {
			p.maxTrees = len(con.Trees)
		}
		for _, tree := range con.Trees {
			p.treeStart = append(p.treeStart, int32(len(p.optStart)))
			for _, o := range tree.Options {
				p.optStart = append(p.optStart, int32(len(p.words)))
				if o.Masks != nil {
					for _, cm := range o.Masks {
						p.words = append(p.words, Word{Time: cm.Time, Widx: cm.Word, Mask: cm.Mask})
					}
				} else {
					for _, u := range o.Usages {
						p.words = append(p.words, Word{
							Time: u.Time,
							Widx: u.Res / bitset.WordBits,
							Mask: 1 << uint(u.Res%bitset.WordBits),
						})
					}
				}
			}
		}
	}
	// Trailing sentinels: every span's end is the next start.
	p.conStart = append(p.conStart, int32(len(p.treeStart)))
	p.treeStart = append(p.treeStart, int32(len(p.optStart)))
	p.optStart = append(p.optStart, int32(len(p.words)))
	return p, nil
}

// NumWords returns the total number of probe words in the plan (a size
// statistic for reports and tests).
func (p *Plan) NumWords() int { return len(p.words) }

// MaxTrees returns the widest constraint's tree count.
func (p *Plan) MaxTrees() int { return p.maxTrees }

// spanFor maps a constraint pointer to its tree span, panicking when the
// pointer is not the plan's constraint at its recorded index, so no probe
// ever trusts a stale Index.
func (p *Plan) spanFor(con *lowlevel.Constraint) (lo, hi int32) {
	ci := con.Index
	if ci < 0 || ci >= len(p.cons) || p.cons[ci] != con {
		panic(fmt.Sprintf("probeplan: constraint %q is not part of the planned description", con.Name))
	}
	return p.conStart[ci], p.conStart[ci+1]
}
