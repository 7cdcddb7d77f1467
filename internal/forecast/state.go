package forecast

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// This file adds the incremental-update and export/restore surface that the
// online serving layer (core.ForecastHub) needs: every model that batch
// training builds from archival trajectories can also be grown one report
// at a time from the live stream, and its learned state can be serialised
// into a pipeline snapshot and restored after a crash. None of these
// methods lock — the hub serialises updates and guards reads; snapshots are
// taken under the ingest barrier, when no update is in flight.

// Observe adds one live report to the route network — the incremental
// counterpart of Train. Only moving reports (speed > 0.5 m/s) contribute,
// matching Train's anchorage filter.
func (rn *RouteNetwork) Observe(p model.Position) {
	if p.SpeedMS <= 0.5 {
		return
	}
	rn.add(p)
}

// RouteCellState is the learned state of one non-empty (cell, sector) pair.
type RouteCellState struct {
	Cell   int     `json:"cell"`
	Sector int     `json:"sector"`
	SumSin float64 `json:"sumSin"`
	SumCos float64 `json:"sumCos"`
	SumSpd float64 `json:"sumSpd"`
	Count  int     `json:"count"`
}

// RouteNetworkState is the serialisable form of a RouteNetwork. The export
// is sparse — only trained (cell, sector) pairs are carried — because a
// serving-resolution grid is mostly empty water.
type RouteNetworkState struct {
	Box   geo.BBox         `json:"box"`
	Cols  int              `json:"cols"`
	Rows  int              `json:"rows"`
	Cells []RouteCellState `json:"cells"`
}

// ExportState captures the learned motion field, in ascending (cell,
// sector) order.
func (rn *RouteNetwork) ExportState() RouteNetworkState {
	st := RouteNetworkState{Box: rn.grid.Box, Cols: rn.grid.Cols, Rows: rn.grid.Rows}
	for cell, slot := range rn.slot {
		if slot == 0 {
			continue
		}
		c := &rn.cells[slot-1]
		for sec, cnt := range c.counts {
			if cnt == 0 {
				continue
			}
			st.Cells = append(st.Cells, RouteCellState{
				Cell: cell, Sector: sec,
				SumSin: c.sumSin[sec], SumCos: c.sumCos[sec],
				SumSpd: c.sumSpd[sec], Count: cnt,
			})
		}
	}
	return st
}

// RestoreState replaces the model with st (grid geometry included, so a
// restored network predicts identically regardless of the receiver's
// construction parameters). Entries outside the grid, or with no count,
// are skipped: they cannot make a cell trained.
func (rn *RouteNetwork) RestoreState(st RouteNetworkState) {
	g := geo.NewGrid(st.Box, st.Cols, st.Rows)
	n := g.NumCells()
	rn.grid = g
	rn.slot = make([]int32, n)
	rn.cells = nil
	for _, c := range st.Cells {
		if c.Cell < 0 || c.Cell >= n || c.Sector < 0 || c.Sector >= nSectors || c.Count <= 0 {
			continue
		}
		rc := rn.cellFor(c.Cell)
		rc.sumSin[c.Sector] = c.SumSin
		rc.sumCos[c.Sector] = c.SumCos
		rc.sumSpd[c.Sector] = c.SumSpd
		rc.counts[c.Sector] = c.Count
	}
}

// Observe appends one live report to the entity's stream-fed trajectory and
// indexes it — the incremental counterpart of Train. The per-entity live
// trajectory is append-only (index runs stay valid); when it would exceed
// maxPerEntity points the oldest half is dropped, in place, and that
// trajectory alone re-indexed, bounding memory on an unbounded stream at a
// cost that does not grow with the number of entities. Reports must arrive
// in per-entity time order (the ingest workers guarantee this).
func (k *HistoryKNN) Observe(p model.Position, maxPerEntity int) {
	if maxPerEntity <= 0 {
		maxPerEntity = 4096
	}
	if k.live == nil {
		k.live = make(map[string]int32)
	}
	ti, ok := k.live[p.EntityID]
	if !ok {
		ti = int32(len(k.trajs))
		k.trajs = append(k.trajs, knnTraj{entity: p.EntityID, domain: p.Domain, lastCell: -1})
		k.live[p.EntityID] = ti
	}
	tr := &k.trajs[ti]
	if len(tr.pts) >= maxPerEntity {
		// Keep the newest half of the trajectory with p appended: the
		// array that holds maxPerEntity points is never outgrown.
		k.unindex(ti)
		drop := (len(tr.pts) + 1) / 2
		tr.pts = tr.pts[:copy(tr.pts, tr.pts[drop:])]
		if tr.alt != nil {
			tr.alt = tr.alt[:copy(tr.alt, tr.alt[drop:])]
		}
		k.indexTrajectory(ti)
	}
	tr.push(&p)
	if p.SpeedMS > 0.5 {
		k.indexPoint(ti, int32(len(tr.pts)-1), k.grid.CellID(p.Pt))
	}
}

// Recent appends to dst the last n reports of the entity's stream-fed
// trajectory, oldest first — the kinematic history the serving hub
// forecasts from. The reports carry status 0: no predictor reads it.
func (k *HistoryKNN) Recent(entity string, n int, dst []model.Position) []model.Position {
	ti, ok := k.live[entity]
	if !ok {
		return dst
	}
	tr := &k.trajs[ti]
	for i := max(len(tr.pts)-n, 0); i < len(tr.pts); i++ {
		dst = append(dst, tr.position(i))
	}
	return dst
}

// Last returns the newest report of the entity's stream-fed trajectory.
func (k *HistoryKNN) Last(entity string) (model.Position, bool) {
	ti, ok := k.live[entity]
	if !ok {
		return model.Position{}, false
	}
	tr := &k.trajs[ti] // a live trajectory is never empty
	return tr.position(len(tr.pts) - 1), true
}

// DropEntities removes the stream-fed trajectories of the given entities
// (archival Train'd trajectories are untouched) and rebuilds the index.
// The serving hub calls this to evict entities that left the feed.
func (k *HistoryKNN) DropEntities(ids []string) {
	dropped := false
	drop := make(map[int32]bool, len(ids))
	for _, id := range ids {
		if ti, ok := k.live[id]; ok {
			drop[ti] = true
			delete(k.live, id)
			dropped = true
		}
	}
	if !dropped {
		return
	}
	trajs := make([]knnTraj, 0, len(k.trajs))
	remap := make(map[int32]int32, len(k.trajs))
	for ti, tr := range k.trajs {
		if drop[int32(ti)] {
			continue
		}
		remap[int32(ti)] = int32(len(trajs))
		trajs = append(trajs, tr)
	}
	k.trajs = trajs
	for id, ti := range k.live {
		k.live[id] = remap[ti]
	}
	k.reindex()
}

// reindex rebuilds the spatial index from the current trajectories.
func (k *HistoryKNN) reindex() {
	k.index = make(map[int][]knnRun)
	k.indexed = 0
	for ti := range k.trajs {
		k.indexTrajectory(int32(ti))
	}
}

// indexTrajectory adds the moving reports of trajectory ti to the index.
func (k *HistoryKNN) indexTrajectory(ti int32) {
	tr := &k.trajs[ti]
	tr.lastCell = -1
	for i := range tr.pts {
		if p := &tr.pts[i]; p.SpeedMS > 0.5 {
			k.indexPoint(ti, int32(i), k.grid.CellID(geo.Pt(p.Lon, p.Lat)))
		}
	}
}

// indexPoint indexes report i of trajectory ti in cell. It extends the
// trajectory's newest run when that run lies in the same cell and ends
// just before i; otherwise it starts a run.
func (k *HistoryKNN) indexPoint(ti, i int32, cell int) {
	k.indexed++
	tr := &k.trajs[ti]
	runs := k.index[cell]
	if cell == tr.lastCell && int(tr.lastRun) < len(runs) {
		if r := &runs[tr.lastRun]; r.traj == ti && r.pt+r.n == i {
			r.n++
			return
		}
	}
	tr.lastCell, tr.lastRun = cell, int32(len(runs))
	k.index[cell] = append(runs, knnRun{traj: ti, pt: i, n: 1})
}

// unindex removes trajectory ti's runs from the cells its moving points
// lie in, each cell filtered once, leaving every other trajectory's runs
// in place.
func (k *HistoryKNN) unindex(ti int32) {
	done := make(map[int]bool)
	for i := range k.trajs[ti].pts {
		p := &k.trajs[ti].pts[i]
		cell := k.grid.CellID(geo.Pt(p.Lon, p.Lat))
		if p.SpeedMS <= 0.5 || done[cell] {
			continue
		}
		done[cell] = true
		runs := k.index[cell]
		kept := runs[:0]
		for _, r := range runs {
			if r.traj != ti {
				kept = append(kept, r)
			} else {
				k.indexed -= int(r.n)
			}
		}
		if len(kept) == 0 {
			delete(k.index, cell)
		} else {
			k.index[cell] = kept
		}
	}
}

// HistoryKNNState is the serialisable form of a HistoryKNN: the trajectories
// themselves, one packed position sequence each (the index is derived and
// rebuilt on restore). A trajectory's entity and domain are its points';
// the points carry status 0.
type HistoryKNNState struct {
	Box              geo.BBox                `json:"box"`
	Cols             int                     `json:"cols"`
	Rows             int                     `json:"rows"`
	MaxCourseDiffDeg float64                 `json:"maxCourseDiffDeg"`
	Trajectories     []model.PackedPositions `json:"trajectories"`
}

// ExportState captures the indexed trajectories, the whole state in memory.
// A snapshot streams it with WriteState instead.
func (k *HistoryKNN) ExportState() HistoryKNNState {
	st := k.stateHead()
	st.Trajectories = make([]model.PackedPositions, 0, len(k.trajs))
	var buf []model.Position
	for ti := range k.trajs {
		buf = k.trajs[ti].positions(buf[:0])
		st.Trajectories = append(st.Trajectories, model.PackPositions(buf))
	}
	return st
}

// stateHead is the state with an empty list of trajectories.
func (k *HistoryKNN) stateHead() HistoryKNNState {
	return HistoryKNNState{
		Box: k.grid.Box, Cols: k.grid.Cols, Rows: k.grid.Rows,
		MaxCourseDiffDeg: k.MaxCourseDiffDeg,
		Trajectories:     []model.PackedPositions{},
	}
}

// WriteState writes ExportState's encoding/json bytes to w, packing the
// trajectories one at a time through reused buffers: the state of a
// long-running hub is millions of points, and is written while ingest
// waits. Write errors stick to w, for its Flush to report.
func (k *HistoryKNN) WriteState(w *bufio.Writer) error {
	head, err := json.Marshal(k.stateHead())
	if err != nil {
		return err
	}
	// Trajectories is the last field, so head ends in its empty list: `[]}`.
	w.Write(head[:len(head)-2])
	var pts []model.Position
	var packed, quoted []byte
	for ti := range k.trajs {
		pts = k.trajs[ti].positions(pts[:0])
		packed = model.AppendPositions(packed[:0], pts)
		quoted = quoted[:0]
		if ti > 0 {
			quoted = append(quoted, ',')
		}
		quoted = append(base64.StdEncoding.AppendEncode(append(quoted, '"'), packed), '"')
		w.Write(quoted)
	}
	w.WriteString("]}")
	return nil
}

// RestoreState replaces the model with st and rebuilds the index. A
// trajectory that does not unpack fails the restore and leaves the model as
// it was.
func (k *HistoryKNN) RestoreState(st HistoryKNNState) error {
	trajs := make([]knnTraj, 0, len(st.Trajectories))
	live := make(map[string]int32, len(st.Trajectories))
	var buf []model.Position
	for i, packed := range st.Trajectories {
		var err error
		if buf, err = model.AppendDecodedPositions(buf[:0], packed); err != nil {
			return fmt.Errorf("forecast: knn trajectory %d: %w", i, err)
		}
		if len(buf) == 0 {
			continue
		}
		tr := knnTraj{entity: buf[0].EntityID, domain: buf[0].Domain, pts: make([]knnPoint, 0, len(buf))}
		for j := range buf {
			tr.push(&buf[j])
		}
		if tr.entity != "" {
			live[tr.entity] = int32(len(trajs))
		}
		trajs = append(trajs, tr)
	}
	k.grid = geo.NewGrid(st.Box, st.Cols, st.Rows)
	if st.MaxCourseDiffDeg > 0 {
		k.MaxCourseDiffDeg = st.MaxCourseDiffDeg
	}
	k.trajs, k.live = trajs, live
	k.reindex()
	return nil
}

// ExportCounts returns a copy of the chain's transition counts.
func (mc *MarkovChain) ExportCounts() [][]float64 {
	out := make([][]float64, len(mc.counts))
	for i, row := range mc.counts {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// RestoreCounts replaces the chain's transition counts (rows/columns beyond
// the chain's symbol count are ignored; missing ones stay zero).
func (mc *MarkovChain) RestoreCounts(counts [][]float64) {
	for i := 0; i < mc.n && i < len(counts); i++ {
		row := make([]float64, mc.n)
		copy(row, counts[i])
		mc.counts[i] = row
	}
}

// ObserveTransition adds one observed symbol transition, for a live stream
// where the caller tracks each entity's previous symbol.
func (mc *MarkovChain) ObserveTransition(from, to int) {
	if from >= 0 && from < mc.n && to >= 0 && to < mc.n {
		mc.counts[from][to]++
	}
}
