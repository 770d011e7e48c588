package main

// The traced run: the same inputs replayed one request at a time, each
// layer timed around calls to its public functions. Nothing here adds
// tracing inside the program.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/prefilter"
	"darklight/internal/serve"
	"darklight/internal/store"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	// span, when set, is the span whose mean self time the metric is, in
	// the metric's unit; otherwise the metric is the mean of the samples
	// the run recorded under name (the median for trace.p50_ms, and the
	// number of samples, one per failed request, for serve.non200).
	span string
}

// layerMetrics are the per-layer metrics, in report order. BENCHMARK.json
// lists the same names.
var layerMetrics = []layerMetric{
	{"serve.decode_ms", "ms", "serve.decode"},
	{"serve.encode_ms", "ms", "serve.encode"},
	{"serve.self_ms", "ms", ""},
	{"serve.alloc_kb", "KiB", ""},
	{"serve.gc_cpu_frac", "ratio", ""},
	{"serve.non200", "count", ""},
	{"attribution.resolve_ms", "ms", "attribution.resolve"},
	{"attribution.rank_ms", "ms", ""},
	{"attribution.rank_alloc_kb", "KiB", ""},
	{"attribution.rescore_ms", "ms", ""},
	{"attribution.rescore_alloc_kb", "KiB", ""},
	{"attribution.match_ms", "ms", "attribution.match"},
	{"attribution.subjects_s", "s", "attribution.subjects"},
	{"attribution.index_build_s", "s", "attribution.index_build"},
	{"features.extract_ms", "ms", "features.extract"},
	{"features.extract_alloc_kb", "KiB", ""},
	{"features.query_grams", "count", ""},
	{"prefilter.scored_frac", "ratio", ""},
	{"prefilter.useful_frac", "ratio", ""},
	{"normalize.polish_s", "s", "normalize.polish"},
	{"store.load_s", "s", "store.load"},
	{"store.append_ms", "ms", "store.append"},
	{"store.read_journal_ms", "ms", "store.read_journal"},
	{"store.replay_s", "s", "store.replay"},
	{"store.save_s", "s", "store.save"},
	{"store.compact_ms", "ms", "store.compact"},
	{"store.snapshot_mb", "MiB", ""},
	{"store.changed_subjects", "count", ""},
	{"loadgen.queue_wait_ms", "ms", ""},
	{"loadgen.lateness_ms", "ms", ""},
	{"trace.p50_ms", "ms", ""},
}

// sample records one per-layer sample.
func (r *run) sample(name string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string][]float64)
	}
	r.layer[name] = append(r.layer[name], v)
}

// emitLayers adds every per-layer metric. A layer the workload does not
// exercise reports 0 with no samples.
func (r *run) emitLayers() {
	totals := layerTotals(r.tr.snapshot())
	for _, m := range layerMetrics {
		var v float64
		n := 0
		if m.span != "" {
			t := totals[m.span]
			n = t.Count
			if n > 0 {
				v = float64(t.Self) / float64(n) / float64(unitScale(m.unit))
			}
		} else {
			xs := r.layer[m.name]
			n = len(xs)
			switch m.name {
			case "trace.p50_ms":
				v = median(xs)
			case "serve.non200":
				v = float64(len(xs))
			default:
				v = mean(xs)
			}
		}
		note := ""
		if n == 0 {
			note = "no samples: the layer did not run, or for serve.non200 nothing failed"
		}
		r.add(m.name, v, m.unit, n, note)
	}
}

func unitScale(unit string) time.Duration {
	if unit == "s" {
		return time.Second
	}
	return time.Millisecond
}

// layerLoadgen records the generator's own metrics and the GC share of
// CPU over an open-loop phase.
func (r *run) layerLoadgen(st phaseStats, before, after runtimeSample) {
	for i := range st.QueueWaits {
		r.sample("loadgen.queue_wait_ms", st.QueueWaits[i])
		r.sample("loadgen.lateness_ms", st.Lateness[i])
	}
	for i := 0; i < st.Failed; i++ {
		r.sample("serve.non200", 1)
	}
	r.sample("serve.gc_cpu_frac", (after.gcCPU-before.gcCPU)/after.wall.Sub(before.wall).Seconds()/float64(runtime.GOMAXPROCS(0)))
}

// layerStore records the store's size and change counts.
func (r *run) layerStore(st *store.Store, l *storeLoader) {
	if fi, err := os.Stat(st.SnapshotPath()); err == nil {
		r.sample("store.snapshot_mb", float64(fi.Size())/(1<<20))
	}
	for _, c := range l.changed {
		r.sample("store.changed_subjects", float64(c))
	}
}

// timed runs fn inside span name under parent and returns its duration
// and the KiB it allocated.
func (r *run) timed(trace, parent int, name string, fn func()) (time.Duration, float64) {
	a := readRuntime()
	sp := r.tr.begin(trace, parent, name)
	t := now()
	fn()
	d := since(t)
	r.tr.end(sp)
	return d, a.allocKB()
}

// replayRank replays by-alias /v1/rank requests: each goes once through
// the daemon, then once through the handler's steps called directly on m,
// and the two bodies must agree.
func (r *run) replayRank(ctx context.Context, d *daemon, m *attribution.Matcher, query map[string]*attribution.Subject, reqs []request, version int) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	cfg := m.Options().Reduction
	for i, q := range reqs {
		tid := i + 1
		root := r.tr.begin(tid, 0, "request")
		var (
			status int
			body   []byte
			err    error
			req    serve.RankRequest
			derr   error
			sub    *attribution.Subject
			doc    *features.Doc
			scored []attribution.Scored
			want   []byte
		)
		httpD, httpKB := r.timed(tid, root, "serve.http", func() { status, body, err = post(ctx, c, d.base+q.Path, apiKey, q.Body) })
		if err != nil {
			return err
		}
		decD, _ := r.timed(tid, root, "serve.decode", func() { derr = decodeStrict(q.Body, &req) })
		if derr != nil {
			return derr
		}
		resD, _ := r.timed(tid, root, "attribution.resolve", func() { sub = query[req.Subject.Alias] })
		if sub == nil {
			return fmt.Errorf("replay: alias %q not in the query corpus", req.Subject.Alias)
		}
		extD, extKB := r.timed(tid, root, "features.extract", func() { doc = features.Extract(sub.Text, cfg) })
		var pst prefilter.Stats
		rankD, rankKB := r.timed(tid, root, "attribution.rank", func() {
			scored, pst = m.RankDetailed(sub, attribution.MatchOptions{})
		})
		encD, _ := r.timed(tid, root, "serve.encode", func() { want = rankBody(version, sub.Name, scored) })
		r.tr.end(root)

		r.sampleServe(status, body, want, q.Alias, httpD, httpKB, decD+resD+rankD+encD)
		r.sampleExtract(doc, extD, extKB)
		r.sample("attribution.rank_ms", ms(rankD-extD))
		r.sample("attribution.rank_alloc_kb", rankKB-extKB)
		r.samplePrefilter(pst, m)
	}
	return nil
}

// replayMatch replays inline /v1/match requests the same way: through the
// daemon, then decode, BuildSubjects, stage 1, stage 2 and encoding called
// directly on m.
func (r *run) replayMatch(ctx context.Context, d *daemon, m *attribution.Matcher, pipe *darklight.Pipeline, reqs []request) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	opts := m.Options()
	subjOpts := pipe.SubjectOptions()
	for i, q := range reqs {
		tid := i + 1
		root := r.tr.begin(tid, 0, "request")
		var (
			status  int
			body    []byte
			err     error
			req     serve.MatchRequest
			sub     *attribution.Subject
			doc     *features.Doc
			res     attribution.MatchResult
			want    []byte
			pst     prefilter.Stats
			stepErr error
		)
		httpD, httpKB := r.timed(tid, root, "serve.http", func() { status, body, err = post(ctx, c, d.base+q.Path, apiKey, q.Body) })
		if err != nil {
			return err
		}
		decD, _ := r.timed(tid, root, "serve.decode", func() { stepErr = decodeStrict(q.Body, &req) })
		if stepErr != nil {
			return stepErr
		}
		resD, _ := r.timed(tid, root, "attribution.resolve", func() { sub, stepErr = inlineSubject(req.Subject, subjOpts) })
		if stepErr != nil {
			return stepErr
		}
		extD, extKB := r.timed(tid, root, "features.extract", func() { doc = features.Extract(sub.Text, opts.Reduction) })
		res.Unknown = sub.Name
		rankD, rankKB := r.timed(tid, root, "attribution.rank", func() {
			res.Candidates, pst = m.RankDetailed(sub, attribution.MatchOptions{})
		})
		var rescD time.Duration
		var rescKB float64
		if len(res.Candidates) > 0 {
			rescD, rescKB = r.timed(tid, root, "attribution.rescore", func() { res.Rescored = m.Rescore(sub, res.Candidates) })
			res.Best = res.Rescored[0]
			res.Accepted = res.Best.Score >= opts.Threshold
		}
		encD, _ := r.timed(tid, root, "serve.encode", func() { want = matchBody(1, &res, opts.Threshold) })
		r.tr.end(root)

		// The handler extracts the query once for both stages; Rescore
		// called alone extracts again, so one extraction is taken off it.
		rescNet := rescD - extD
		r.sampleServe(status, body, want, q.Alias, httpD, httpKB, decD+resD+rankD+rescNet+encD)
		r.sampleExtract(doc, extD, extKB)
		r.sample("attribution.rank_ms", ms(rankD-extD))
		r.sample("attribution.rank_alloc_kb", rankKB-extKB)
		r.sample("attribution.rescore_ms", ms(rescNet))
		r.sample("attribution.rescore_alloc_kb", rescKB-extKB)
		r.samplePrefilter(pst, m)
	}
	return nil
}

// replayLink links one unknown with Matcher.Match, then re-runs its
// stages one by one for the per-layer split. It returns Match's result.
func (r *run) replayLink(m *attribution.Matcher, u *attribution.Subject, tid int) attribution.MatchResult {
	opts := m.Options()
	root := r.tr.begin(tid, 0, "link")
	var (
		res    attribution.MatchResult
		doc    *features.Doc
		scored []attribution.Scored
		pst    prefilter.Stats
	)
	matchD, _ := r.timed(tid, root, "attribution.match", func() { res = m.Match(u) })
	extD, extKB := r.timed(tid, root, "features.extract", func() { doc = features.Extract(u.Text, opts.Reduction) })
	rankD, rankKB := r.timed(tid, root, "attribution.rank", func() {
		scored, pst = m.RankDetailed(u, attribution.MatchOptions{})
	})
	if len(scored) > 0 {
		rescD, rescKB := r.timed(tid, root, "attribution.rescore", func() { m.Rescore(u, scored) })
		r.sample("attribution.rescore_ms", ms(rescD-extD))
		r.sample("attribution.rescore_alloc_kb", rescKB-extKB)
	}
	r.tr.end(root)
	r.sample("trace.p50_ms", ms(matchD))
	r.sampleExtract(doc, extD, extKB)
	r.sample("attribution.rank_ms", ms(rankD-extD))
	r.sample("attribution.rank_alloc_kb", rankKB-extKB)
	r.samplePrefilter(pst, m)
	return res
}

// sampleServe records one replayed request's serve-layer numbers and
// checks the daemon's body against the replayed one. children is the
// time of the handler steps replayed outside the daemon.
func (r *run) sampleServe(status int, body, want []byte, alias string, httpD time.Duration, httpKB float64, children time.Duration) {
	if status != 200 {
		r.sample("serve.non200", 1)
		r.mismatch("replay %s: status %d %q", alias, status, body)
	} else if string(body) != string(want) {
		r.mismatch("replay %s: daemon answered %q, the library path %q", alias, body, want)
	}
	r.ops(1, 0)
	r.sample("trace.p50_ms", ms(httpD))
	r.sample("serve.self_ms", ms(httpD-children))
	r.sample("serve.alloc_kb", httpKB)
}

func (r *run) sampleExtract(doc *features.Doc, d time.Duration, kb float64) {
	r.sample("features.extract_alloc_kb", kb)
	r.sample("features.query_grams", float64(len(doc.WordGrams)+len(doc.CharGrams)))
}

// samplePrefilter records how much of the known set stage 1 scored, and
// how many of the scored subjects made the top k.
func (r *run) samplePrefilter(st prefilter.Stats, m *attribution.Matcher) {
	if st.Scored > 0 {
		r.sample("prefilter.scored_frac", float64(st.Scored)/float64(m.NumKnown()))
		r.sample("prefilter.useful_frac", float64(min(st.Scored, m.Options().K))/float64(st.Scored))
	}
}
