package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/prefilter"
	"darklight/internal/serve"
	"darklight/internal/store"
)

// workloads maps each --workload name to its driver. BENCHMARK.json
// records why each exists and the parameters below.
var workloads = map[string]func(context.Context, *run) error{
	"rank-alias":     rankAlias,
	"match-inline":   matchInline,
	"batch-link":     batchLink,
	"journal-reload": journalReload,
}

// Workload parameters. The nominal rates were fixed once at about a third
// of the capacity measured on the reference machine and are never derived
// again, so a change in capacity shows as a change in latency.
const (
	setupReps = 3

	rankScale   = 0.02
	rankNominal = 12.0 // requests per second
	rankSLO     = 500 * time.Millisecond

	matchScale   = 0.01
	matchNominal = 10.0
	matchSLO     = 1000 * time.Millisecond
	// matchCheckSample is how many /v1/match responses are recomputed on
	// the library path; every response is checked for status and shape.
	matchCheckSample = 24

	batchScale = 0.02
	// batchSample is how many unknowns are re-linked one at a time, both
	// to time single-link latency and to check MatchAll against Match.
	batchSample = 40

	journalScale    = 0.01
	journalReadRate = 5.0
	// journalPhase stretches the measured phase to twice the run's seconds:
	// reads and reloads are the cheapest work here, and their latencies
	// need the samples (80 reads, about 14 reloads at 8 s).
	journalPhase = 2
	// journalProbes is how many query aliases the final generation must
	// answer byte-equal to a rebuild over the merged corpus.
	journalProbes = 36

	// probeCount bisection steps search 2^probeCount ladder rungs above
	// the nominal rate (1.05^32, about 4.8x nominal) for max_rps; each
	// probe sends probeRequests requests, so every verdict rests on the
	// same tail percentile. saturateRequests back-to-back requests measure
	// the sustained service rate the probes' backlog test uses.
	probeCount       = 5
	probeRequests    = 40
	saturateRequests = 80
	// warmRequests precede the timed phases of a serving workload, at the
	// nominal rate, so the matcher's lazy caches (the stage-2 documents of
	// the candidates that recur) are filled first: a daemon runs warm.
	warmRequests = 30
)

// prepare generates the world at scale and restarts the peak-RSS count.
func (r *run) prepare(scale float64) (*forum.Dataset, error) {
	raw, err := generateWorld(scale)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		r.note("peak RSS could not be reset, so it includes input generation: %v", err)
	}
	return raw, nil
}

// finish adds the memory metrics.
func (r *run) finish(heapMB float64) error {
	if r.trace {
		return nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add("live_heap_mb", heapMB, "MiB", 1, "heap live after set-up and GC, less the inputs held before set-up")
	r.add("peak_rss_mb", rss, "MiB", 1, "VmHWM since input generation")
	return nil
}

// setupWorld sets up the synthetic-world daemon setupReps times from raw
// (once in the traced run), keeps the last, and adds setup_s. It returns
// the live daemon, the corpus its loader returned and the live heap the
// set-up added.
func (r *run) setupWorld(ctx context.Context, pipe *darklight.Pipeline, raw *forum.Dataset) (*daemon, *serve.Corpus, float64, error) {
	reps := setupReps
	if r.trace {
		reps = 1
	}
	base := liveHeapMB()
	var (
		d       *daemon
		corpus  *serve.Corpus
		samples []float64
	)
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
			d, corpus = nil, nil
		}
		in := cloneDataset(raw)
		runtime.GC()
		root := r.tr.begin(0, 0, "setup")
		start := now()
		sp := r.tr.begin(0, root, "serve.start")
		var err error
		d, err = startDaemon(ctx, pipe, worldLoader(pipe, in, r.tr, sp, &corpus))
		r.tr.end(sp)
		samples = append(samples, since(start).Seconds())
		r.tr.end(root)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	heap := liveHeapMB() - base
	if !r.trace {
		r.add("setup_s", median(samples), "s", len(samples), fmt.Sprintf("polish, refine, split, subjects, index build, serve.New, first healthz; samples %.3f", samples))
	}
	return d, corpus, heap, nil
}

// referenceMatcher is the matcher the benchmark calls directly. In the
// traced run it is the served one, which the loader built so the replay
// can call it; the untraced run leaves the build to serve.New, as
// cmd/attributed does, and checks against an independently built one.
func (r *run) referenceMatcher(ctx context.Context, pipe *darklight.Pipeline, corpus *serve.Corpus) (*attribution.Matcher, error) {
	if corpus.Matcher != nil {
		return corpus.Matcher, nil
	}
	return attribution.NewMatcherContext(ctx, corpus.Known, matcherOptions(pipe))
}

// nominalCount is how many requests the nominal phase of a serving
// workload sends: its rate over the run's seconds. A fixed count makes
// every run pick its tail from the same sample size.
func (r *run) nominalCount(rate float64) int {
	return int(math.Round(rate * r.seconds.Seconds()))
}

// trafficFunc makes a phase's requests on a schedule.
type trafficFunc func(tag string, sched []time.Duration) []request

// servePhase is one open-loop phase's requests and what they saw.
type servePhase struct {
	reqs []request
	res  []sent
}

// drive runs reqs open-loop against d and counts the operations.
func (r *run) drive(ctx context.Context, c *http.Client, d *daemon, reqs []request, abort time.Duration) servePhase {
	res := openLoop(ctx, c, d.base, apiKey, reqs, r.conns, abort)
	st := summarise(res)
	r.ops(st.Attempted, st.Failed)
	for i := range res {
		if res[i].Done != 0 && !res[i].OK() {
			r.note("failed %s %s: %s", reqs[i].Path, reqs[i].Alias, statusError(&res[i]))
			break
		}
	}
	return servePhase{reqs, res}
}

// openPhases runs the warm-up and nominal phases and, in the untraced run,
// measures max_rps. It adds p50_ms, tail_ms and throughput_per_s and
// returns every phase for checking.
func (r *run) openPhases(ctx context.Context, d *daemon, traffic trafficFunc, nominalRate float64, objective slo) (nominal servePhase, all []servePhase) {
	c := newClient(r.conns)
	defer c.CloseIdleConnections()
	all = append(all, r.drive(ctx, c, d, traffic("warm", poissonCount(stream(r.seed, "schedule-warm"), nominalRate, warmRequests)), 0))

	before := readRuntime()
	nominal = r.drive(ctx, c, d, traffic("nominal", poissonCount(stream(r.seed, "schedule-nominal"), nominalRate, r.nominalCount(nominalRate))), 0)
	after := readRuntime()
	all = append(all, nominal)
	st := summarise(nominal.res)
	t, haveTail := tailOf(st.Latencies)
	if r.trace {
		r.layerLoadgen(st, before, after)
		return nominal, all
	}
	if !haveTail {
		r.note("FLAG: too few nominal samples for a tail above the median; tail_ms is the median")
		t.Value = median(st.Latencies)
	}
	r.add("p50_ms", median(st.Latencies), "ms", len(st.Latencies), fmt.Sprintf("at %.4g rps nominal, from due time", nominalRate))
	r.add("tail_ms", t.Value, "ms", t.N, fmt.Sprintf("%s, %d samples beyond", fmtPct(t.Pct), tailBeyond))
	r.lateness(st.Lateness, "the nominal phase")

	// The sustained service rate: every request due at once, so each
	// sender fires as soon as its previous response is read.
	sat := r.drive(ctx, c, d, traffic("saturate", make([]time.Duration, saturateRequests)), 0)
	all = append(all, sat)
	service := sustained(sat.res)
	r.note("sustained service rate %.3f rps over %d back-to-back requests on %d connections", service, saturateRequests, r.conns)

	lo := rungAtOrBelow(nominalRate)
	if !objective.met(verdict{Rate: nominalRate, Tail: t, Failed: st.Failed}, haveTail, service) {
		r.note("FLAG: the nominal phase itself missed the SLO; max_rps is reported at the nominal rung")
	}
	best := bisectRungs(lo, lo+1<<probeCount, func(step int) bool {
		v := verdict{Rate: rung(step)}
		if v.Rate > service {
			r.note("probe %7.3f rps: above the sustained service rate, backlog grows", v.Rate)
			return false
		}
		tag := fmt.Sprintf("probe-%d", step)
		p := r.drive(ctx, c, d, traffic(tag, poissonCount(stream(r.seed, "schedule-"+tag), v.Rate, probeRequests)), 2*objective.TailLimit)
		all = append(all, p)
		ps := summarise(p.res)
		v.Failed, v.Aborted = ps.Failed, ps.Attempted < len(p.reqs)
		var ok bool
		v.Tail, ok = tailOf(ps.Latencies)
		met := objective.met(v, ok, service)
		r.note("probe %7.3f rps: n=%d tail=%.1fms (%s) failed=%d aborted=%t meets=%t",
			v.Rate, ps.Attempted, v.Tail.Value, fmtPct(v.Tail.Pct), v.Failed, v.Aborted, met)
		return met
	})
	note := fmt.Sprintf("max_rps: highest ladder rate with tail<=%s, no failures, not above the sustained rate", objective.TailLimit)
	if best == lo+1<<probeCount-1 {
		note += "; FLAG: top of the search bracket"
	}
	r.add("throughput_per_s", rung(best), "1/s", probeCount, note)
	return nominal, all
}

// lateLimit is the mean generator lateness above which a phase is flagged:
// past it, latencies measure the load machine as much as the daemon.
const lateLimit = 1.0 // ms

// lateness reports how late the generator sent a phase's requests.
func (r *run) lateness(xs []float64, phase string) {
	flag := ""
	if mean(xs) > lateLimit {
		flag = "FLAG: "
	}
	r.note("%sgenerator lateness in %s: mean %.3f ms, max %.2f ms", flag, phase, mean(xs), max0(xs))
}

// queryIndex maps query alias names to their subjects.
func queryIndex(subs []attribution.Subject) (map[string]*attribution.Subject, []string) {
	idx := make(map[string]*attribution.Subject, len(subs))
	names := make([]string, 0, len(subs))
	for i := range subs {
		if _, dup := idx[subs[i].Name]; !dup {
			names = append(names, subs[i].Name)
		}
		idx[subs[i].Name] = &subs[i]
	}
	return idx, names
}

// rankRef returns a memoised reference for by-alias /v1/rank bodies: the
// exact stage-1 scan (which the default pruned mode must reproduce bit
// for bit) on m.
func rankRef(m *attribution.Matcher, query map[string]*attribution.Subject, version int) func(string) ([]byte, error) {
	memo := make(map[string][]byte)
	return func(alias string) ([]byte, error) {
		if b, ok := memo[alias]; ok {
			return b, nil
		}
		sub, ok := query[alias]
		if !ok {
			return nil, fmt.Errorf("reference: alias %q not in the query corpus", alias)
		}
		scored, _ := m.RankDetailed(sub, attribution.MatchOptions{Mode: prefilter.ModeExact})
		b := rankBody(version, alias, scored)
		memo[alias] = b
		return b, nil
	}
}

// rankAlias: open-loop by-alias /v1/rank at scale rankScale.
func rankAlias(ctx context.Context, r *run) error {
	raw, err := r.prepare(rankScale)
	if err != nil {
		return err
	}
	pipe := newPipeline()
	d, corpus, heap, err := r.setupWorld(ctx, pipe, raw)
	if err != nil {
		return err
	}
	defer d.close()
	raw = nil
	query, names := queryIndex(corpus.Query)
	traffic := func(tag string, sched []time.Duration) []request {
		return rankRequests(stream(r.seed, "rank-"+tag), names, sched)
	}
	nominal, all := r.openPhases(ctx, d, traffic, rankNominal, slo{TailLimit: rankSLO})

	ref, err := r.referenceMatcher(ctx, pipe, corpus)
	if err != nil {
		return err
	}
	var q quality
	refBody := rankRef(ref, query, 1)
	for _, p := range all {
		if err := r.checkRank(p.reqs, p.res, refBody, &q); err != nil {
			return err
		}
	}
	q.report(r)
	if r.trace {
		if err := r.replayRank(ctx, d, ref, query, nominal.reqs, 1); err != nil {
			return err
		}
	}
	return r.finish(heap)
}

// matchInline: open-loop inline /v1/match at scale matchScale, every body a
// fresh subset of an alter ego's raw messages.
func matchInline(ctx context.Context, r *run) error {
	raw, err := r.prepare(matchScale)
	if err != nil {
		return err
	}
	// The query aliases and their raw messages are inputs: derive them from
	// a separate copy, outside the timed set-up.
	pipe := newPipeline()
	_, ae := prepareSplit(ctx, pipe, cloneDataset(raw), nil, 0)
	srcs := inlineSources(raw, ae)
	ae = nil
	d, corpus, heap, err := r.setupWorld(ctx, pipe, raw)
	if err != nil {
		return err
	}
	defer d.close()
	raw = nil
	traffic := func(tag string, sched []time.Duration) []request {
		return inlineRequests(stream(r.seed, "inline-"+tag), fmt.Sprintf("%d-%s", r.seed, tag), srcs, sched)
	}
	nominal, all := r.openPhases(ctx, d, traffic, matchNominal, slo{TailLimit: matchSLO})

	ref, err := r.referenceMatcher(ctx, pipe, corpus)
	if err != nil {
		return err
	}
	threshold := matcherOptions(pipe).Threshold
	var q quality
	type answered struct {
		req  *request
		body []byte
	}
	var got []answered
	for _, p := range all {
		for i := range p.res {
			s := &p.res[i]
			if s.Done == 0 || !s.OK() {
				continue
			}
			var resp serve.MatchResponse
			if err := json.Unmarshal(s.Body, &resp); err != nil || resp.IndexVersion != 1 {
				r.mismatch("match %s: bad response %q", p.reqs[i].Alias, s.Body)
				continue
			}
			best := ""
			if resp.Best != nil {
				best = resp.Best.Alias
			}
			q.add(p.reqs[i].Alias, resp.Candidates, best, resp.Accepted)
			got = append(got, answered{&p.reqs[i], s.Body})
		}
	}
	q.report(r)
	pick := stream(r.seed, "check").Perm(len(got))
	checked := 0
	for _, i := range pick[:min(matchCheckSample, len(pick))] {
		var req serve.MatchRequest
		if err := decodeStrict(got[i].req.Body, &req); err != nil {
			return fmt.Errorf("reference decode: %w", err)
		}
		sub, err := inlineSubject(req.Subject, pipe.SubjectOptions())
		if err != nil {
			return fmt.Errorf("reference subject: %w", err)
		}
		res := ref.Match(sub)
		if want := matchBody(1, &res, threshold); string(want) != string(got[i].body) {
			r.mismatch("match %s: got %q, want %q", req.Subject.Name, got[i].body, want)
		}
		checked++
	}
	r.note("checked %d of %d /v1/match responses against BuildSubjects + Matcher.Match", checked, len(got))
	if r.trace {
		if err := r.replayMatch(ctx, d, ref, pipe, nominal.reqs); err != nil {
			return err
		}
	}
	return r.finish(heap)
}

// batchLink: one cold Matcher.MatchAll pass over every alter ego at scale
// batchScale, then single links of a seeded sample.
func batchLink(ctx context.Context, r *run) error {
	raw, err := r.prepare(batchScale)
	if err != nil {
		return err
	}
	pipe := newPipeline()
	opts := matcherOptions(pipe)
	reps := setupReps
	if r.trace {
		reps = 1
	}
	base := liveHeapMB()
	var (
		m       *attribution.Matcher
		query   []attribution.Subject
		samples []float64
	)
	for i := 0; i < reps; i++ {
		m, query = nil, nil
		in := cloneDataset(raw)
		runtime.GC()
		root := r.tr.begin(0, 0, "setup")
		start := now()
		mainDS, ae := prepareSplit(ctx, pipe, in, r.tr, root)
		sp := r.tr.begin(0, root, "attribution.subjects")
		known, err := pipe.Subjects(mainDS)
		if err == nil {
			query, err = pipe.Subjects(ae)
		}
		r.tr.end(sp)
		if err != nil {
			return err
		}
		sp = r.tr.begin(0, root, "attribution.index_build")
		m, err = attribution.NewMatcherContext(ctx, known, opts)
		r.tr.end(sp)
		samples = append(samples, since(start).Seconds())
		r.tr.end(root)
		if err != nil {
			return err
		}
	}
	heap := liveHeapMB() - base
	raw = nil
	if !r.trace {
		r.add("setup_s", median(samples), "s", len(samples), fmt.Sprintf("polish, refine, split, subjects, index build; samples %.3f", samples))
	}

	sp := r.tr.begin(0, 0, "attribution.match_all")
	start := now()
	results, err := m.MatchAll(ctx, query)
	elapsed := since(start)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.ops(len(query), 0)
	var q quality
	for i := range results {
		res := &results[i]
		q.add(query[i].Name, toCandidates(res.Candidates), res.Best.Name, res.Accepted)
	}

	pick := stream(r.seed, "batch-sample").Perm(len(query))[:min(batchSample, len(query))]
	var lat []float64
	for n, i := range pick {
		var got attribution.MatchResult
		if r.trace {
			got = r.replayLink(m, &query[i], n+1)
		} else {
			t := now()
			got = m.Match(&query[i])
			lat = append(lat, ms(since(t)))
		}
		if !reflect.DeepEqual(got, results[i]) {
			r.mismatch("batch %s: MatchAll gave %+v, Match gave %+v", query[i].Name, results[i], got)
		}
	}
	r.ops(len(pick), 0)
	if r.trace {
		return nil
	}
	t, _ := tailOf(lat)
	r.add("p50_ms", median(lat), "ms", len(lat), "single Matcher.Match after the batch, sequential")
	r.add("tail_ms", t.Value, "ms", t.N, fmt.Sprintf("%s, %d samples beyond", fmtPct(t.Pct), tailBeyond))
	r.add("throughput_per_s", float64(len(query))/elapsed.Seconds(), "1/s", len(query),
		fmt.Sprintf("links_per_s: %d unknowns in %.3fs, one cold MatchAll pass", len(query), elapsed.Seconds()))
	q.report(r)
	return r.finish(heap)
}

// journalReload: cold start from a saved snapshot, then append-and-reload
// cycles beside low-rate by-alias reads, at scale journalScale.
func journalReload(ctx context.Context, r *run) error {
	raw, err := r.prepare(journalScale)
	if err != nil {
		return err
	}
	pipe := newPipeline()
	opts := matcherOptions(pipe)
	subjOpts := pipe.SubjectOptions()

	// Before the timed cold starts: build and save the snapshot the
	// daemon starts from, as an earlier `attributed -save-index` would.
	prep := r.tr.begin(0, 0, "prepare")
	mainDS, ae := prepareSplit(ctx, pipe, raw, r.tr, prep)
	sp := r.tr.begin(0, prep, "attribution.subjects")
	query, err := pipe.Subjects(ae)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	known := mainDS.Names()
	pool := make(map[string][]forum.Message, ae.Len())
	for _, a := range ae.Aliases {
		pool[a.Name] = a.Messages
	}
	poolNames := ae.Names()
	raw, ae = nil, nil
	sp = r.tr.begin(0, prep, "store.build_index")
	idx, err := store.BuildIndex(ctx, mainDS, opts, subjOpts)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	dir := fmt.Sprintf("%s/journal-%d-%d", r.buildDir(), r.seed, os.Getpid())
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if err := st.Save(idx); err != nil {
		return err
	}
	baseDS := idx.Dataset
	idx = nil
	r.tr.end(prep)

	reps := setupReps
	if r.trace {
		reps = 1
	}
	base := liveHeapMB()
	var (
		d       *daemon
		loader  *storeLoader
		samples []float64
	)
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		root := r.tr.begin(0, 0, "setup")
		start := now()
		st, err = store.Open(dir)
		if err != nil {
			return err
		}
		loader = &storeLoader{st: st, query: query, subj: subjOpts, tr: r.tr, parent: root}
		d, err = startDaemon(ctx, pipe, loader.load)
		samples = append(samples, since(start).Seconds())
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("cold start: %w", err)
		}
	}
	defer d.close()
	heap := liveHeapMB() - base
	if !r.trace {
		r.add("setup_s", median(samples), "s", len(samples), fmt.Sprintf("store.Open, Store.Load, journal replay, serve.New, first healthz; samples %.3f", samples))
	}

	// The measured phase: reads on their own schedule while the writer
	// appends a batch and reloads, cycle after cycle.
	qidx, names := queryIndex(query)
	phase := journalPhase * r.seconds
	readN := int(math.Round(journalReadRate * phase.Seconds()))
	reads := rankRequests(stream(r.seed, "journal-reads"), names, poissonCount(stream(r.seed, "schedule-journal-reads"), journalReadRate, readN))
	c := newClient(r.conns)
	defer c.CloseIdleConnections()
	readDone := make(chan servePhase, 1)
	before := readRuntime()
	go func() { readDone <- r.drive(ctx, c, d, reads, 0) }()
	var (
		appendMS, reloadS []float64
		lastSeq           uint64
		appended          []forum.ThreadRecord
		writeErr          error
	)
	phaseStart := now()
	for cycle := 0; writeErr == nil && (cycle < 2 || since(phaseStart) < phase); cycle++ {
		batch := journalBatch(stream(r.seed, fmt.Sprintf("journal-%d", cycle)), r.seed, cycle, known, pool, poolNames)
		for _, rec := range batch {
			sp := r.tr.begin(0, 0, "store.append")
			t := now()
			lastSeq, writeErr = st.AppendThread(rec)
			appendMS = append(appendMS, ms(since(t)))
			r.tr.end(sp)
			if writeErr != nil {
				break
			}
			appended = append(appended, rec)
		}
		if writeErr != nil {
			break
		}
		sp := r.tr.begin(0, 0, "serve.reload")
		loader.parent = sp
		t := now()
		writeErr = d.svc.Reload(ctx)
		reloadS = append(reloadS, since(t).Seconds())
		r.tr.end(sp)
	}
	readPhase := <-readDone
	after := readRuntime()
	r.ops(len(appendMS)+len(reloadS), 0)
	if writeErr != nil {
		return fmt.Errorf("journal cycle: %w", writeErr)
	}

	// Checks: healthz reports the last appended seq, and the final
	// generation answers probes byte-equal to a rebuild over the merged
	// corpus.
	status, body, err := post(ctx, c, d.base+"/v1/healthz", "", nil)
	if err != nil {
		return err
	}
	var h serve.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil || status != http.StatusOK {
		r.mismatch("healthz: %d %q", status, body)
	} else if h.LastJournalSeq == nil || *h.LastJournalSeq != lastSeq || h.IndexVersion != 1+len(reloadS) {
		r.mismatch("healthz: last_journal_seq/index_version %v/%d, want %d/%d", h.LastJournalSeq, h.IndexVersion, lastSeq, 1+len(reloadS))
	}
	version := d.svc.Version()
	merged, _ := store.ApplyThreads(baseDS, appended)
	rebuilt, err := store.BuildIndex(ctx, merged, opts, subjOpts)
	if err != nil {
		return err
	}
	probeNames := make([]string, 0, journalProbes)
	for _, i := range stream(r.seed, "journal-probes").Perm(len(names))[:min(journalProbes, len(names))] {
		probeNames = append(probeNames, names[i])
	}
	var q quality
	for i := range readPhase.res {
		s := &readPhase.res[i]
		if s.Done == 0 || !s.OK() {
			continue
		}
		var resp serve.RankResponse
		if err := json.Unmarshal(s.Body, &resp); err != nil || resp.Subject != readPhase.reqs[i].Alias || resp.IndexVersion < 1 || resp.IndexVersion > version {
			r.mismatch("read %s: bad response %q", readPhase.reqs[i].Alias, s.Body)
			continue
		}
		q.addRank(resp.Subject, resp.Candidates)
	}
	probeReqs := make([]request, len(probeNames))
	for i, name := range probeNames {
		probeReqs[i] = request{Path: "/v1/rank", Body: mustJSON(serve.RankRequest{Subject: serve.SubjectSpec{Alias: name}}), Alias: name}
	}
	probes := r.drive(ctx, c, d, probeReqs, 0)
	if err := r.checkRank(probes.reqs, probes.res, rankRef(rebuilt.Matcher, qidx, version), &q); err != nil {
		return err
	}
	r.lateness(summarise(readPhase.res).Lateness, "the reads beside the reloads")
	if r.trace {
		r.layerLoadgen(summarise(readPhase.res), before, after)
		r.layerStore(st, loader)
		return r.replayRank(ctx, d, loader.cur.Matcher, qidx, probeReqs, version)
	}

	st2 := summarise(readPhase.res)
	t, haveTail := tailOf(st2.Latencies)
	if !haveTail {
		t.Value = median(st2.Latencies)
	}
	r.add("p50_ms", median(st2.Latencies), "ms", len(st2.Latencies), fmt.Sprintf("reads at %.4g rps beside reloads, from due time", journalReadRate))
	r.add("tail_ms", t.Value, "ms", t.N, fmt.Sprintf("%s, %d samples beyond", fmtPct(t.Pct), tailBeyond))
	reload := median(reloadS)
	r.add("throughput_per_s", journalThreads/reload, "1/s", len(reloadS),
		fmt.Sprintf("journal threads folded per second of reload; reload_s median %.4fs over %d cycles", reload, len(reloadS)))
	q.report(r)
	return r.finish(heap)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs hold only strings and numbers
	}
	return b
}
