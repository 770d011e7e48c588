package attribution_test

import (
	"reflect"
	"testing"

	"darklight/internal/attribution"
)

// TestRescoreOnDenseWorld pins stage 2 to the per-call reference on the
// forum world the daemon serves — real gram distributions, frequency and
// activity blocks — for every probe's stage-1 candidates, plus one list
// naming a candidate twice (both copies join the candidate vocabulary).
func TestRescoreOnDenseWorld(t *testing.T) {
	w := denseWorld(t)
	if len(w.queries) < 20 {
		t.Fatalf("world too small: %d queries", len(w.queries))
	}
	for qi := range w.queries {
		q := &w.queries[qi]
		t.Run(q.Name, func(t *testing.T) {
			t.Parallel() // the reference re-extracts every candidate
			cands := w.m.Rank(q, 0)
			if qi == 0 {
				cands = append(cands, cands[len(cands)/2])
			}
			got := w.m.Rescore(q, cands)
			want := attribution.ReferenceRescore(w.m, q, cands)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Rescore diverged from reference:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}
