package mig

import "repro/internal/cut"

// classifyCut adapts the node table to the cut enumerator. The constant node
// contributes no leaves (its cut is empty), so constant fanins do not
// consume cut capacity.
func (m *MIG) classifyCut(i int) (cut.Role, [3]int32, int) {
	switch m.nodes[i].kind {
	case kindConst:
		return cut.Free, [3]int32{}, 0
	case kindPI:
		return cut.Leaf, [3]int32{}, 0
	case kindMaj:
		f := m.nodes[i].fanin
		return cut.Gate, [3]int32{int32(f[0].Node()), int32(f[1].Node()), int32(f[2].Node())}, 3
	}
	return cut.Skip, [3]int32{}, 0
}

// CutSet returns the MIG's arena-backed cut cache for the given parameters,
// enumerating only nodes appended since the previous call (nodes are only
// ever appended, so the dirty region is always the tail). The returned
// cache is owned by the MIG; its views are invalidated by Maj.
func (m *MIG) CutSet(k, maxCuts int) *cut.Cache {
	if m.cutCache == nil || m.cutCache.K() != k || m.cutCache.MaxCuts() != maxCuts {
		m.cutCache = cut.NewCache(k, maxCuts)
	}
	m.cutCache.Extend(len(m.nodes), m.classifyCut)
	return m.cutCache
}
