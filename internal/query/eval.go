package query

import (
	"slices"

	"github.com/datacron-project/datacron/internal/rdf"
)

// compiled is a query lowered onto slots, once per run (DESIGN.md §16):
// every variable is a dense slot index, every pattern position a constant's
// id or a slot, every filter knows the slots of its variables. A node's
// shards share one dictionary, so the constants resolve once for all of
// them; only the pattern order is still chosen per shard.
type compiled struct {
	width   int          // slots per partial match; at least 1, so a match always occupies arena space
	pats    [][3]slotRef // q.Patterns, position for position
	filters []slotFilter
	bounds  []*numBound // per slot: the numeric interval pushed into sealed scans, if any
	out     []int       // per input column its slot; -1 = in no pattern, the column stays unbound
	empty   bool        // a constant is unknown to the dictionary: no triple can match
}

// slotRef is one pattern position: a variable's slot, or (slot < 0) a
// constant's id.
type slotRef struct {
	id   rdf.ID
	slot int
}

// slotFilter is a filter with the slots of its Vars(); one that names a
// variable no pattern binds (slot -1) never becomes ready.
type slotFilter struct {
	f     Filter
	slots []int
}

// compile lowers q for a scan producing cols.
func compile(q *Query, cols []string, dict *rdf.Dictionary) *compiled {
	vars := q.patternVars() // a variable's slot is its rank of first mention
	slot := func(v string) int { return slices.Index(vars, v) }
	c := &compiled{pats: make([][3]slotRef, len(q.Patterns)), width: max(len(vars), 1)}
	for i, tp := range q.Patterns {
		for j, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			ref := slotRef{slot: -1}
			if pt.IsVar {
				ref.slot = slot(pt.Var)
			} else if id, ok := dict.Lookup(pt.Term); ok {
				ref.id = id
			} else {
				c.empty = true
			}
			c.pats[i][j] = ref
		}
	}
	for _, f := range q.Filters {
		sf := slotFilter{f: f}
		for _, v := range f.Vars() {
			sf.slots = append(sf.slots, slot(v))
		}
		c.filters = append(c.filters, sf)
	}
	c.bounds = numericBounds(c.filters, c.width)
	for _, v := range cols {
		c.out = append(c.out, slot(v))
	}
	return c
}

// order picks a shard's pattern order greedily: repeatedly the pattern with
// the most positions that are constants or already-bound variables (a bound
// variable counts once more: connected patterns avoid Cartesian blowup, and
// an object the numeric pushdown serves counts as a constant), ties to the
// smaller estimate of the pattern's scan over the shard's tiers; over no
// tiers the heuristic is purely structural. cards holds each chosen
// pattern's estimate.
func (c *compiled) order(tiers []rdf.Graph) (plan, cards []int) {
	bound := make([]bool, c.width)
	plan, cards = make([]int, 0, len(c.pats)), make([]int, 0, len(c.pats))
	for len(plan) < len(c.pats) {
		best, bestScore, bestCard := -1, -1, 0
		for i, pat := range c.pats {
			if slices.Contains(plan, i) {
				continue
			}
			ob := c.pushdown(pat, bound)
			score, card := 0, estimate(tiers, pat, ob)
			for j, ref := range pat {
				switch {
				case ref.slot < 0, j == 2 && ob != nil:
					score += 2
				case bound[ref.slot]:
					score += 3
				}
			}
			if score > bestScore || (score == bestScore && card < bestCard) {
				best, bestScore, bestCard = i, score, card
			}
		}
		plan, cards = append(plan, best), append(cards, bestCard)
		for _, ref := range c.pats[best] {
			if ref.slot >= 0 {
				bound[ref.slot] = true
			}
		}
	}
	return plan, cards
}

// pushdown returns the numeric interval a scan of pat pushes into sealed
// segments while the slots in bound are bound, or nil. It is the object's
// interval when the object is an unbound variable under a constant
// predicate and an unbound subject: the pattern then binds the bounded
// variable, and a segment's numeric column holds exactly its candidates.
func (c *compiled) pushdown(pat [3]slotRef, bound []bool) *numBound {
	s, p, o := pat[0], pat[1], pat[2]
	if p.slot >= 0 || s.slot < 0 || bound[s.slot] || o.slot < 0 || bound[o.slot] {
		return nil
	}
	return c.bounds[o.slot]
}

// estimate is the planner's cardinality estimate of a scan of pat over the
// tiers: under a pushed-down interval ob, the in-range count of each sealed
// segment's numeric column (two binary searches) plus the predicate's count
// in the head and global tiers, which scan it whole; under a constant object
// its (P, O) run; else the predicate's count, or the tiers' size under a
// variable predicate.
func estimate(tiers []rdf.Graph, pat [3]slotRef, ob *numBound) (n int) {
	for _, part := range tiers {
		if seg, sealed := part.(*rdf.Segment); pat[1].slot >= 0 {
			n += part.Len()
		} else if sealed && ob != nil {
			n += seg.NumericCount(pat[1].id, ob.Lo, ob.Hi)
		} else {
			n += part.PredCard(pat[1].id, pat[2].id) // a variable's id is rdf.Wildcard
		}
	}
	return n
}

// joins counts a scan's join steps, those that read a slot an earlier step
// bound, by how they ran: as one sort-merge, or as a probe per row.
type joins struct{ merge, probe int }

// evalShard joins the patterns over one shard's tiers — in an order chosen
// per shard: predicate cardinalities differ across shards and change as
// segments seal and age out — and returns every match's projection onto
// c.out with the match count (a projection can be zero columns wide) and how
// its join steps ran. dict is Dictionary.Terms as of the tiers. A partial
// match is width consecutive ids in a flat arena, 0 = unbound; two arenas
// ping-pong between pattern steps, so a step allocates nothing per match.
// What a pattern reads and binds depends only on those before it.
func (c *compiled) evalShard(tiers []rdf.Graph, dict []rdf.Term) (out []rdf.ID, matches int, ran joins) {
	if c.empty {
		return nil, 0, ran
	}
	w := c.width
	cur, next := make([]rdf.ID, w), []rdf.ID(nil)
	bound := make([]bool, w)
	applied := make([]bool, len(c.filters))
	plan, cards := c.order(tiers)
	for step, pi := range plan {
		if len(cur) == 0 {
			return nil, 0, ran
		}
		var key [3]rdf.ID // the scan: constants, read slots filled per row, Wildcard where it binds
		var read, bind [3]int
		for j, ref := range c.pats[pi] {
			read[j], bind[j] = -1, -1
			switch {
			case ref.slot < 0:
				key[j] = ref.id
			case bound[ref.slot]:
				read[j] = ref.slot
			default:
				bind[j] = ref.slot
			}
		}
		// A variable repeated in one pattern must match itself (`?x ?x ?o`):
		// the guard runs before the row is appended.
		eqSP := bind[0] >= 0 && bind[0] == bind[1]
		eqSO := bind[0] >= 0 && bind[0] == bind[2]
		eqPO := bind[1] >= 0 && bind[1] == bind[2]
		ob := c.pushdown(c.pats[pi], bound)
		var from []rdf.ID
		emit := func(t rdf.Triple) bool {
			if eqSP && t.S != t.P || eqSO && t.S != t.O || eqPO && t.P != t.O {
				return true
			}
			n := len(next)
			next = append(next, from...)
			for j, id := range [3]rdf.ID{t.S, t.P, t.O} {
				if bind[j] >= 0 {
					next[n+bind[j]] = id
				}
			}
			return true
		}
		next = slices.Grow(next[:0], len(cur))
		// A join from a bound subject over a constant predicate, its object
		// unbound or constant, reads the predicate's run of every tier once,
		// sorted, when that run is no longer than a probe per row and tier.
		// The planner's estimate of such a step is the runs' length.
		merge := read[0] >= 0 && c.pats[pi][1].slot < 0 && read[2] < 0 && cards[step] <= len(cur)/w*len(tiers)
		if merge {
			ran.merge++
			next = mergeJoin(tiers, cur, next, w, read[0], key[1], key[2], bind[2], cards[step])
		} else if read != [3]int{-1, -1, -1} {
			ran.probe++
		}
		for i := 0; i < len(cur) && !merge; i += w {
			from = cur[i : i+w]
			for j, s := range read {
				if s >= 0 {
					key[j] = from[s]
				}
			}
			// emit never stops a scan: walk the tiers without the
			// stop-propagating wrapper View.FindID allocates per call.
			for _, part := range tiers {
				scanPattern(part, key[0], key[1], key[2], ob, emit)
			}
		}
		for _, s := range bind {
			if s >= 0 {
				bound[s] = true
			}
		}
		// Each filter runs once, after the first step that binds all of its
		// variables.
		for fi, sf := range c.filters {
			if applied[fi] || slices.ContainsFunc(sf.slots, func(s int) bool { return s < 0 || !bound[s] }) {
				continue
			}
			applied[fi] = true
			args := make([]rdf.Term, len(sf.slots))
			kept := next[:0]
			for i := 0; i < len(next); i += w {
				for k, s := range sf.slots {
					args[k] = dict[next[i+s]-1]
				}
				if sf.f.Eval(args) {
					kept = append(kept, next[i:i+w]...)
				}
			}
			next = kept
		}
		cur, next = next, cur
	}
	for i := 0; i < len(cur); i += w {
		for _, s := range c.out {
			var id rdf.ID
			if s >= 0 {
				id = cur[i+s]
			}
			out = append(out, id)
		}
	}
	return out, len(cur) / w, ran
}

// mergeJoin is a join step as a sort-merge: the (p[, o]) runs of the tiers,
// card triples packed S<<32|O and radix-sorted by S, against the rows of cur
// radix-sorted by their subject slot subj. It appends to next what a probe
// per row appends — each row once per triple of its subject, with the object
// in slot bindO unless that is -1 — in subject order.
func mergeJoin(tiers []rdf.Graph, cur, next []rdf.ID, w, subj int, p, o rdf.ID, bindO, card int) []rdf.ID {
	run, rows := make([]uint64, 0, card), make([]uint64, len(cur)/w)
	gather := func(tr rdf.Triple) bool {
		run = append(run, uint64(tr.S)<<32|uint64(tr.O))
		return true
	}
	for _, t := range tiers {
		t.FindID(rdf.Wildcard, p, o, gather)
	}
	for i := range rows {
		rows[i] = uint64(cur[i*w+subj])<<32 | uint64(i)
	}
	rdf.RadixSort(run, nil, 4)
	rdf.RadixSort(rows, nil, 4)
	for i, k := 0, 0; i < len(rows); i++ {
		s := rows[i] >> 32
		for k < len(run) && run[k]>>32 < s {
			k++
		}
		from := cur[int(uint32(rows[i]))*w:][:w]
		for e := k; e < len(run) && run[e]>>32 == s; e++ {
			next = append(next, from...)
			if bindO >= 0 {
				next[len(next)-w+bindO] = rdf.ID(uint32(run[e]))
			}
		}
	}
	return next
}
