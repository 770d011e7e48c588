package attribution

// DenseBlockCounts reports how many known subjects carry a frequency block
// and how many an activity block, for the external tests.
func DenseBlockCounts(m *Matcher) (freq, act int) {
	for _, msk := range m.mask {
		if msk&maskFreq != 0 {
			freq++
		}
		if msk&maskAct != 0 {
			act++
		}
	}
	return freq, act
}

// ReferenceRescore is the per-call stage 2 the production Rescore is
// pinned against (referenceRescore), for the external tests.
func ReferenceRescore(m *Matcher, unknown *Subject, candidates []Scored) []Scored {
	return referenceRescore(m, unknown, candidates)
}
