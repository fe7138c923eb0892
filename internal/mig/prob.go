package mig

// Signal probabilities and switching activity (the paper's third metric,
// §IV.C). Probabilities are propagated from the inputs under an
// independence assumption: for a majority node with fanin probabilities
// pa, pb, pc,
//
//	p = pa·pb + pa·pc + pb·pc − 2·pa·pb·pc,
//
// and a complemented edge contributes 1−p. The switching activity of a node
// with output probability p is 2·p·(1−p) (the probability that two
// independent consecutive evaluations differ), and the activity of the MIG
// is the sum over live majority nodes.

// Probabilities returns the signal probability of every node. An input
// past the end of inputProbs (every input, when it is nil) has
// probability 0.5.
func (m *MIG) Probabilities(inputProbs []float64) []float64 {
	p := make([]float64, len(m.nodes))
	get := func(s Signal) float64 {
		v := p[s.Node()]
		if s.Neg() {
			return 1 - v
		}
		return v
	}
	inIdx := 0
	for i := range m.nodes {
		switch m.nodes[i].kind {
		case kindConst:
			p[i] = 0
		case kindPI:
			p[i] = 0.5
			if inIdx < len(inputProbs) {
				p[i] = inputProbs[inIdx]
			}
			inIdx++
		case kindMaj:
			a := get(m.nodes[i].fanin[0])
			b := get(m.nodes[i].fanin[1])
			c := get(m.nodes[i].fanin[2])
			p[i] = a*b + a*c + b*c - 2*a*b*c
		}
	}
	return p
}

// Activity returns the total switching activity Σ 2·p·(1−p) over live
// majority nodes, with uniform input probabilities when inputProbs is nil.
func (m *MIG) Activity(inputProbs []float64) float64 {
	p := m.Probabilities(inputProbs)
	live := m.LiveMask()
	total := 0.0
	for i := range m.nodes {
		if live[i] && m.nodes[i].kind == kindMaj {
			total += 2 * p[i] * (1 - p[i])
		}
	}
	return total
}
