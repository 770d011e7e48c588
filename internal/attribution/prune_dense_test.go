package attribution_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/prefilter"
)

// forumWorld is the scale-0.01, seed-1 Reddit world the daemon serves,
// indexed under the pipeline's default matcher options.
type forumWorld struct {
	pipe    *darklight.Pipeline
	m       *attribution.Matcher
	queries []attribution.Subject
}

var (
	denseOnce  sync.Once
	denseBuilt forumWorld
	denseErr   error
)

// denseWorld builds the forum world once for every test that needs it.
func denseWorld(t *testing.T) forumWorld {
	t.Helper()
	denseOnce.Do(func() { denseBuilt, denseErr = buildForumWorld() })
	if denseErr != nil {
		t.Fatal(denseErr)
	}
	return denseBuilt
}

func buildForumWorld() (forumWorld, error) {
	world, err := darklight.GenerateWorld(darklight.WorldConfig{Seed: 1, Scale: 0.01})
	if err != nil {
		return forumWorld{}, err
	}
	pipe := darklight.NewPipeline()
	pipe.PolishContext(context.Background(), world.Reddit)
	mainDS, aeDS := pipe.SplitAlterEgos(pipe.Refine(world.Reddit))
	known, err := pipe.Subjects(mainDS)
	if err != nil {
		return forumWorld{}, err
	}
	queries, err := pipe.Subjects(aeDS)
	if err != nil {
		return forumWorld{}, err
	}
	m, err := attribution.NewMatcher(known, pipe.MatcherOptions())
	if err != nil {
		return forumWorld{}, err
	}
	return forumWorld{pipe: pipe, m: m, queries: queries}, nil
}

// TestPrunedOnDenseWorld runs the pruned stage 1 on the forum world the
// daemon serves, where subjects have frequency and activity blocks.
// Pruned must equal exact bit for bit for every query, at the default
// weights and text-only (Activity 0). At the default weights it must also
// score fewer than half of the known set: with the dense blocks bounded by
// their mask-wide caps almost every subject survives, so this guards the
// per-subject dense bounds. Text-only scores on this world are too close
// together for the default gram tail bound to separate them, so that case
// pins only the identity.
func TestPrunedOnDenseWorld(t *testing.T) {
	w := denseWorld(t)
	m, queries, pipe := w.m, w.queries, w.pipe
	n := m.NumKnown()
	if n < 50 || len(queries) < 20 {
		t.Fatalf("world too small to test pruning: %d known, %d queries", n, len(queries))
	}
	freq, act := attribution.DenseBlockCounts(m)
	if freq < n/2 || act < n/2 {
		t.Fatalf("dense blocks missing: %d of %d known subjects have frequencies, %d activity", freq, n, act)
	}

	opts := pipe.MatcherOptions()
	for _, tc := range []struct {
		name  string
		w     attribution.Weights
		prune bool
	}{
		{"default", attribution.Weights{Freq: opts.FreqWeight, Activity: opts.ActivityWeight}, true},
		{"activity0", attribution.Weights{Freq: opts.FreqWeight}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scored := 0
			for qi := range queries {
				q := &queries[qi]
				exact, _ := m.RankDetailed(q, attribution.MatchOptions{Weights: &tc.w, Mode: prefilter.ModeExact})
				pruned, st := m.RankDetailed(q, attribution.MatchOptions{Weights: &tc.w, Mode: prefilter.ModePruned})
				if len(pruned) != len(exact) {
					t.Fatalf("%s: pruned returned %d candidates, exact %d", q.Name, len(pruned), len(exact))
				}
				for i := range exact {
					if pruned[i].Name != exact[i].Name || math.Float64bits(pruned[i].Score) != math.Float64bits(exact[i].Score) {
						t.Fatalf("%s: pruned diverges at %d: %+v vs %+v", q.Name, i, pruned[i], exact[i])
					}
				}
				scored += st.Scored
			}
			if frac := float64(scored) / float64(n*len(queries)); tc.prune && frac >= 0.5 {
				t.Errorf("pruned scored %.3f of the known set per query, want < 0.5", frac)
			}
		})
	}
}
