// Package hashed provides the open-addressing hash tables backing the
// structural-hashing (strash) maps of the graph packages (internal/mig,
// internal/aig). The tables map small fixed-width signal tuples to dense
// node indices and are tuned for the graph workloads:
//
//   - open addressing with linear probing over power-of-two capacities, so
//     lookups touch one or two cache lines instead of chasing the buckets
//     of a built-in map;
//   - tombstone-free deletion by backward shifting: the probes that build
//     a candidate and roll it back (the MIG window engine, ActivityPass and
//     cut-rewrite, and the AIG passes; the MIG's Ω/Ψ passes only look up)
//     delete as often as they insert, and tombstones would degrade every
//     later probe;
//   - value-guarded deletion (DeleteAbove), so a rollback can never evict a
//     surviving node's entry even if a caller passes a stale key;
//   - O(1) cloning cost proportional to capacity (flat slice copies), which
//     makes MIG/AIG Clone cheap compared to rehashing a built-in map.
//
// The zero value of each table is ready to use. Values must be positive:
// value 0 marks an empty slot (node 0 is the constant node in both graph
// representations and is never structurally hashed).
//
// Table2 and Table3 are deliberately two concrete types rather than one
// generic table: the lookup sits on the single hottest path of the whole
// system (every Maj/And call), and a hash function carried as a field or
// interface would not inline. The implementations must be kept in lockstep
// — any fix to the probe or deletion logic applies to both.
package hashed

const (
	// minCap is the initial capacity of a table on first insert.
	minCap = 16
	// growNum/growDen: grow when count*growDen >= cap*growNum (load 13/16).
	growNum = 13
	growDen = 16
)

// mix64 finalizes a 64-bit hash (splitmix64 finalizer).
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func hash2(k [2]uint32) uint64 {
	return mix64(uint64(k[0])<<32 | uint64(k[1]))
}

func hash3(k [3]uint32) uint64 {
	return mix64(mix64(uint64(k[0])<<32|uint64(k[1])) + uint64(k[2])*0x9e3779b97f4a7c15)
}

// Table3 maps [3]uint32 keys to positive int32 values.
type Table3 struct {
	keys  [][3]uint32
	vals  []int32
	count int
}

// Len returns the number of stored entries.
func (t *Table3) Len() int { return t.count }

// Get returns the value stored for k.
func (t *Table3) Get(k [3]uint32) (int32, bool) {
	if t.count == 0 {
		return 0, false
	}
	mask := uint64(len(t.vals) - 1)
	for i := hash3(k) & mask; ; i = (i + 1) & mask {
		if t.vals[i] == 0 {
			return 0, false
		}
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
}

// Put stores v (which must be positive) for k, replacing any previous value.
func (t *Table3) Put(k [3]uint32, v int32) {
	if v <= 0 {
		panic("hashed: Table3 values must be positive")
	}
	if len(t.vals) == 0 || (t.count+1)*growDen >= len(t.vals)*growNum {
		t.grow()
	}
	mask := uint64(len(t.vals) - 1)
	for i := hash3(k) & mask; ; i = (i + 1) & mask {
		if t.vals[i] == 0 {
			t.keys[i] = k
			t.vals[i] = v
			t.count++
			return
		}
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
}

// Delete removes k's entry if present, reporting whether it was.
func (t *Table3) Delete(k [3]uint32) bool { return t.DeleteAbove(k, 0) }

// DeleteAbove removes k's entry only when its value is >= limit, reporting
// whether an entry was removed. Rollback uses this with the checkpoint index
// as the limit, so entries of surviving nodes are never evicted.
func (t *Table3) DeleteAbove(k [3]uint32, limit int32) bool {
	if t.count == 0 {
		return false
	}
	mask := uint64(len(t.vals) - 1)
	i := hash3(k) & mask
	for {
		if t.vals[i] == 0 {
			return false
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	if t.vals[i] < limit {
		return false
	}
	// Backward-shift deletion: close the probe cluster without tombstones.
	t.vals[i] = 0
	t.count--
	j := i
	for k := (i + 1) & mask; t.vals[k] != 0; k = (k + 1) & mask {
		home := hash3(t.keys[k]) & mask
		// Move k into the hole at j unless k's home lies strictly inside
		// (j, k] on the probe circle (in which case k is still reachable).
		if (k-home)&mask >= (k-j)&mask {
			t.keys[j] = t.keys[k]
			t.vals[j] = t.vals[k]
			t.vals[k] = 0
			j = k
		}
	}
	return true
}

// Reserve grows the table so that n entries fit without rehashing.
func (t *Table3) Reserve(n int) {
	need := minCap
	for need*growNum <= n*growDen {
		need <<= 1
	}
	if need > len(t.vals) {
		t.rehash(need)
	}
}

// Clone returns a deep copy sharing no storage with t.
func (t *Table3) Clone() Table3 {
	return Table3{
		keys:  append([][3]uint32(nil), t.keys...),
		vals:  append([]int32(nil), t.vals...),
		count: t.count,
	}
}

// Reset removes all entries, keeping the capacity for reuse.
func (t *Table3) Reset() {
	for i := range t.vals {
		t.vals[i] = 0
	}
	t.count = 0
}

func (t *Table3) grow() {
	newCap := minCap
	if len(t.vals) > 0 {
		newCap = len(t.vals) * 2
	}
	t.rehash(newCap)
}

func (t *Table3) rehash(newCap int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([][3]uint32, newCap)
	t.vals = make([]int32, newCap)
	mask := uint64(newCap - 1)
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		k := oldKeys[i]
		for j := hash3(k) & mask; ; j = (j + 1) & mask {
			if t.vals[j] == 0 {
				t.keys[j] = k
				t.vals[j] = v
				break
			}
		}
	}
}

// Table2 maps [2]uint32 keys to positive int32 values. It is Table3 for
// two-element keys (the AIG strash).
type Table2 struct {
	keys  [][2]uint32
	vals  []int32
	count int
}

// Len returns the number of stored entries.
func (t *Table2) Len() int { return t.count }

// Get returns the value stored for k.
func (t *Table2) Get(k [2]uint32) (int32, bool) {
	if t.count == 0 {
		return 0, false
	}
	mask := uint64(len(t.vals) - 1)
	for i := hash2(k) & mask; ; i = (i + 1) & mask {
		if t.vals[i] == 0 {
			return 0, false
		}
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
}

// Put stores v (which must be positive) for k, replacing any previous value.
func (t *Table2) Put(k [2]uint32, v int32) {
	if v <= 0 {
		panic("hashed: Table2 values must be positive")
	}
	if len(t.vals) == 0 || (t.count+1)*growDen >= len(t.vals)*growNum {
		t.grow()
	}
	mask := uint64(len(t.vals) - 1)
	for i := hash2(k) & mask; ; i = (i + 1) & mask {
		if t.vals[i] == 0 {
			t.keys[i] = k
			t.vals[i] = v
			t.count++
			return
		}
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
}

// Delete removes k's entry if present, reporting whether it was.
func (t *Table2) Delete(k [2]uint32) bool { return t.DeleteAbove(k, 0) }

// DeleteAbove removes k's entry only when its value is >= limit, reporting
// whether an entry was removed.
func (t *Table2) DeleteAbove(k [2]uint32, limit int32) bool {
	if t.count == 0 {
		return false
	}
	mask := uint64(len(t.vals) - 1)
	i := hash2(k) & mask
	for {
		if t.vals[i] == 0 {
			return false
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	if t.vals[i] < limit {
		return false
	}
	t.vals[i] = 0
	t.count--
	j := i
	for k := (i + 1) & mask; t.vals[k] != 0; k = (k + 1) & mask {
		home := hash2(t.keys[k]) & mask
		if (k-home)&mask >= (k-j)&mask {
			t.keys[j] = t.keys[k]
			t.vals[j] = t.vals[k]
			t.vals[k] = 0
			j = k
		}
	}
	return true
}

// Reserve grows the table so that n entries fit without rehashing.
func (t *Table2) Reserve(n int) {
	need := minCap
	for need*growNum <= n*growDen {
		need <<= 1
	}
	if need > len(t.vals) {
		t.rehash(need)
	}
}

// Clone returns a deep copy sharing no storage with t.
func (t *Table2) Clone() Table2 {
	return Table2{
		keys:  append([][2]uint32(nil), t.keys...),
		vals:  append([]int32(nil), t.vals...),
		count: t.count,
	}
}

// Reset removes all entries, keeping the capacity for reuse.
func (t *Table2) Reset() {
	for i := range t.vals {
		t.vals[i] = 0
	}
	t.count = 0
}

func (t *Table2) grow() {
	newCap := minCap
	if len(t.vals) > 0 {
		newCap = len(t.vals) * 2
	}
	t.rehash(newCap)
}

func (t *Table2) rehash(newCap int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([][2]uint32, newCap)
	t.vals = make([]int32, newCap)
	mask := uint64(newCap - 1)
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		k := oldKeys[i]
		for j := hash2(k) & mask; ; j = (j + 1) & mask {
			if t.vals[j] == 0 {
				t.keys[j] = k
				t.vals[j] = v
				break
			}
		}
	}
}
