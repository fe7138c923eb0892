package cut

// Micro-benchmarks for the shared cut machinery on a synthetic layered
// majority graph (each gate consumes three earlier nodes), sized like a
// mid-size MCNC circuit.

import "testing"

// benchGraph returns classify for a deterministic layered 3-fanin DAG with
// nPI inputs and nGate gates.
func benchGraph(nPI, nGate int) (int, Classifier) {
	numNodes := 1 + nPI + nGate
	return numNodes, func(i int) (Role, [3]int32, int) {
		switch {
		case i == 0:
			return Free, [3]int32{}, 0
		case i <= nPI:
			return Leaf, [3]int32{}, 0
		default:
			// Three distinct earlier nodes, skewed toward recent ones so
			// cuts overlap and the merge/dominance machinery is exercised.
			a := 1 + (i*7)%(i-1)
			b := 1 + (i*13)%(i-1)
			c := 1 + (i*29)%(i-1)
			if b == a {
				b = 1 + (b % (i - 1))
			}
			if c == a || c == b {
				c = 1 + ((c + 1) % (i - 1))
			}
			return Gate, [3]int32{int32(a), int32(b), int32(c)}, 3
		}
	}
}

// BenchmarkEnumerate measures a cold Cache.Extend over the whole graph.
func BenchmarkEnumerate(b *testing.B) {
	numNodes, classify := benchGraph(64, 2000)
	c := NewCache(4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Extend(numNodes, classify)
		if c.NumNodes() != numNodes {
			b.Fatal("bad result")
		}
	}
}
