package main

// Input generation. Everything the benchmark sends to the program is made
// here, from the fixed world seed and the run's --seed; the program under
// test receives only the bytes and records this file produces.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"darklight"
	"darklight/internal/forum"
	"darklight/internal/serve"
)

// worldSeed is cmd/attributed's default -seed. The world is the same on
// every run; --seed varies the traffic drawn from it.
const worldSeed = 1

// generateWorld builds the Reddit forum of the synthetic world cmd/attributed
// serves by default, at the given population scale.
func generateWorld(scale float64) (*forum.Dataset, error) {
	w, err := darklight.GenerateWorld(darklight.WorldConfig{Seed: worldSeed, Scale: scale})
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	return w.Reddit, nil
}

// cloneDataset copies the alias and message slices, so the in-place polish
// of one set-up leaves the raw corpus untouched for the next.
func cloneDataset(d *forum.Dataset) *forum.Dataset {
	out := forum.NewDataset(d.Name, d.Platform)
	out.Aliases = make([]forum.Alias, len(d.Aliases))
	for i, a := range d.Aliases {
		a.Messages = append([]forum.Message(nil), a.Messages...)
		out.Aliases[i] = a
	}
	return out
}

// stream is the seeded random source of one purpose within a run, so that
// adding a draw to one phase does not shift the inputs of another.
func stream(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	//lint:ignore errdrop writes to a hash.Hash never fail
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// poissonCount returns the first n due times of a Poisson arrival process
// at rate per second.
func poissonCount(r *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// request is one scheduled HTTP request.
type request struct {
	Due  time.Duration
	Path string
	Body []byte
	// Alias is the query corpus alias whose text the request carries: the
	// ground truth a correct link names.
	Alias string
}

// rankRequests makes by-alias /v1/rank requests on sched, each naming a
// query alias drawn uniformly from names.
func rankRequests(r *rand.Rand, names []string, sched []time.Duration) []request {
	out := make([]request, len(sched))
	for i, due := range sched {
		name := names[r.IntN(len(names))]
		body, err := json.Marshal(serve.RankRequest{Subject: serve.SubjectSpec{Alias: name}})
		if err != nil {
			panic(err) // a struct of strings always encodes
		}
		out[i] = request{Due: due, Path: "/v1/rank", Body: body, Alias: name}
	}
	return out
}

// inlineSource is one alter-ego alias with its messages as first
// collected, before any cleaning: what an analyst pastes into /v1/match.
type inlineSource struct {
	Alias    string
	Messages []forum.Message
}

// inlineSources pairs each query alias with its raw messages, looked up
// by message id in the uncleaned corpus.
func inlineSources(raw *forum.Dataset, query *forum.Dataset) []inlineSource {
	byID := make(map[string]forum.Message)
	for _, a := range raw.Aliases {
		for _, m := range a.Messages {
			byID[m.ID] = m
		}
	}
	out := make([]inlineSource, 0, query.Len())
	for _, a := range query.Aliases {
		src := inlineSource{Alias: a.Name}
		for _, m := range a.Messages {
			if rm, ok := byID[m.ID]; ok {
				src.Messages = append(src.Messages, rm)
			}
		}
		if len(src.Messages) > 0 {
			out = append(out, src)
		}
	}
	return out
}

// inlineKeep is the share of an alias's messages one inline request
// carries. Drawing a fresh subset per request makes every body unique, so
// no cache keyed on the request can answer it.
const inlineKeep = 0.75

// inlineRequests makes inline /v1/match requests on sched: each carries a
// seeded subset of one alter-ego alias's raw messages under a name unique
// to the request.
func inlineRequests(r *rand.Rand, tag string, srcs []inlineSource, sched []time.Duration) []request {
	out := make([]request, len(sched))
	for i, due := range sched {
		src := srcs[r.IntN(len(srcs))]
		spec := serve.SubjectSpec{Name: fmt.Sprintf("inline-%s-%d", tag, i)}
		for _, m := range src.Messages {
			if r.Float64() < inlineKeep {
				spec.Messages = append(spec.Messages, serve.MessageSpec{Body: m.Body, Time: m.PostedAt.Format(time.RFC3339)})
			}
		}
		if len(spec.Messages) == 0 {
			m := src.Messages[r.IntN(len(src.Messages))]
			spec.Messages = append(spec.Messages, serve.MessageSpec{Body: m.Body, Time: m.PostedAt.Format(time.RFC3339)})
		}
		body, err := json.Marshal(serve.MatchRequest{Subject: spec})
		if err != nil {
			panic(err) // a struct of strings always encodes
		}
		out[i] = request{Due: due, Path: "/v1/match", Body: body, Alias: src.Alias}
	}
	return out
}

// Journal batches: each reload cycle appends journalThreads threads of
// journalPosts posts. Even-numbered threads are written by a drawn indexed
// author when that author has alter-ego posts to reuse (most do: newly
// scraped posts of a known alias); the rest by authors the index has never
// seen.
const (
	journalThreads = 6
	journalPosts   = 4
)

// journalBatch makes cycle's thread records. known are the indexed alias
// names; pool holds posts to draw text and times from, keyed by author.
func journalBatch(r *rand.Rand, seed uint64, cycle int, known []string, pool map[string][]forum.Message, poolNames []string) []forum.ThreadRecord {
	recs := make([]forum.ThreadRecord, journalThreads)
	for t := range recs {
		var author string
		var posts []forum.Message
		if t%2 == 0 {
			author = known[r.IntN(len(known))]
			posts = pool[author]
		}
		if len(posts) == 0 {
			src := poolNames[r.IntN(len(poolNames))]
			author = fmt.Sprintf("fresh-%d-%d-%d", seed, cycle, t)
			posts = pool[src]
		}
		rec := forum.ThreadRecord{Thread: fmt.Sprintf("bench-%d-%d-%d", seed, cycle, t)}
		for p := 0; p < journalPosts; p++ {
			m := posts[r.IntN(len(posts))]
			m.ID = fmt.Sprintf("j%d-%d-%d-%d", seed, cycle, t, p)
			m.Author = author
			m.Thread = rec.Thread
			rec.Messages = append(rec.Messages, m)
		}
		recs[t] = rec
	}
	return recs
}
