package features

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"darklight/internal/sparse"
)

// randomDoc builds a synthetic document from a small gram-id pool so that
// cross-document overlaps and frequency ties are common — the cases where
// selection order and tie-breaking could drift between implementations.
func randomDoc(rng *rand.Rand) *Doc {
	d := &Doc{
		WordGrams: make(map[GramID]int),
		CharGrams: make(map[GramID]int),
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		g := GramID(rng.Intn(60))
		c := 1 + rng.Intn(4)
		d.WordGrams[g] += c
		d.WordTotal += c
	}
	for i, n := 0, rng.Intn(80); i < n; i++ {
		g := GramID(1000 + rng.Intn(120))
		c := 1 + rng.Intn(3)
		d.CharGrams[g] += c
		d.CharTotal += c
	}
	for i := range d.Freq {
		if rng.Intn(4) == 0 {
			d.Freq[i] = rng.Float64()
		}
	}
	d.TotalChars = 100 + rng.Intn(400)
	return d
}

// referenceDots is the map-based stage 2 the kernel replaces: fold the
// candidates through a VocabBuilder, vectorize and unit-normalise every
// gram block, and dot the unknown's against each candidate's.
func referenceDots(cfg Config, cands []*Doc, u *Doc) (dots []float64, has []bool, uHas bool) {
	vb := NewVocabBuilder(cfg)
	for _, d := range cands {
		vb.Add(d)
	}
	v := vb.Build()
	uv := v.VectorizeGrams(u).Normalize()
	for _, d := range cands {
		cv := v.VectorizeGrams(d).Normalize()
		dots = append(dots, sparse.Dot(uv, cv))
		has = append(has, cv.Len() > 0)
	}
	return dots, has, uv.Len() > 0
}

// checkKernel compares one kernel call against referenceDots bit for bit.
func checkKernel(t *testing.T, k *GramKernel, cfg Config, cands []*Doc, u *Doc, label string) {
	t.Helper()
	sorted := make([]*SortedDoc, len(cands))
	for i, d := range cands {
		sorted[i] = d.Sorted()
	}
	wantDot, wantHas, wantU := referenceDots(cfg, cands, u)
	gotDot, gotHas, gotU := k.Dots(cfg, sorted, u.Sorted())
	if len(gotDot) != len(cands) || len(gotHas) != len(cands) {
		t.Fatalf("%s: %d dots, %d presence flags for %d candidates", label, len(gotDot), len(gotHas), len(cands))
	}
	if gotU != wantU {
		t.Fatalf("%s: unknown gram presence %v, reference %v", label, gotU, wantU)
	}
	for j := range cands {
		if math.Float64bits(gotDot[j]) != math.Float64bits(wantDot[j]) {
			t.Fatalf("%s: candidate %d dot %v (%#x), reference %v (%#x)",
				label, j, gotDot[j], math.Float64bits(gotDot[j]), wantDot[j], math.Float64bits(wantDot[j]))
		}
		if gotHas[j] != wantHas[j] {
			t.Fatalf("%s: candidate %d gram presence %v, reference %v", label, j, gotHas[j], wantHas[j])
		}
	}
}

// TestGramKernelMatchesVocabBuilder pins the rank-space kernel to the
// general map-based path: the same gram selection, index order, IDF and
// normalisation, hence bit-identical dots, across budgets that keep
// everything, cut through frequency ties, keep nothing, or are unlimited;
// candidate counts from 0 to 12 and past 64; duplicate candidates; and
// unknowns with grams outside the candidates' union. One kernel serves
// every trial, so stale scratch would show up as a mismatch.
func TestGramKernelMatchesVocabBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var k GramKernel
	for trial := 0; trial < 400; trial++ {
		cfg := FinalConfig()
		switch trial % 4 {
		case 0: // generous budgets: nothing truncated
			cfg.MaxWordGrams, cfg.MaxCharGrams = 10000, 10000
		case 1: // tight budgets: heavy truncation through the tie region
			cfg.MaxWordGrams, cfg.MaxCharGrams = 1+rng.Intn(10), 1+rng.Intn(20)
		case 2: // zero budgets
			cfg.MaxWordGrams, cfg.MaxCharGrams = 0, 0
		case 3: // negative budgets mean unlimited, like topN
			cfg.MaxWordGrams, cfg.MaxCharGrams = -1, -1
		}
		n := trial % 13
		if trial%25 == 24 {
			n = 65 + rng.Intn(20)
		}
		cands := make([]*Doc, n)
		for i := range cands {
			if i > 0 && rng.Intn(5) == 0 {
				cands[i] = cands[rng.Intn(i)] // the same document twice
			} else {
				cands[i] = randomDoc(rng)
			}
		}
		u := randomDoc(rng)
		switch trial % 3 {
		case 1: // grams no candidate has
			for i := 0; i < 10; i++ {
				u.WordGrams[GramID(500+i)] += 2
				u.WordTotal += 2
				u.CharGrams[GramID(5000+i)]++
				u.CharTotal++
			}
		case 2: // the unknown is one of the candidates
			if n > 0 {
				u = cands[rng.Intn(n)]
			}
		}
		checkKernel(t, &k, cfg, cands, u, fmt.Sprintf("trial %d (k=%d)", trial, n))
	}
}

// TestGramKernelEmpty covers the degenerate inputs Rescore can hit: no
// candidates at all, and an unknown with no grams.
func TestGramKernelEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var k GramKernel
	empty := &Doc{WordGrams: map[GramID]int{}, CharGrams: map[GramID]int{}}
	checkKernel(t, &k, FinalConfig(), nil, randomDoc(rng), "no candidates")
	checkKernel(t, &k, FinalConfig(), nil, empty, "no candidates, empty unknown")
	cands := []*Doc{randomDoc(rng), randomDoc(rng), empty, randomDoc(rng)}
	checkKernel(t, &k, FinalConfig(), cands, empty, "empty unknown")
	checkKernel(t, &k, FinalConfig(), cands, cands[1], "known unknown after an empty one")
}
