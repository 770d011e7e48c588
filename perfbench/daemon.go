package main

// The daemon under test, assembled the way cmd/attributed assembles it with
// its default flags: the pruned stage 1, request tracing at a 0.01 sample
// rate with a 250 ms slow rule, API-key auth, no rate limit, a 30 s
// TimeoutHandler, and net/http on loopback.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
	"darklight/internal/prefilter"
	"darklight/internal/serve"
	"darklight/internal/store"
)

const (
	apiKey         = "perfbench-key"
	traceSample    = 0.01
	traceSlow      = 250 * time.Millisecond
	handlerTimeout = 30 * time.Second
	rateBurst      = 20
)

// newPipeline is cmd/attributed's pipeline under its default flags.
func newPipeline() *darklight.Pipeline {
	return darklight.NewPipeline(
		darklight.WithThreshold(darklight.DefaultThreshold),
		darklight.WithK(darklight.DefaultK),
		darklight.WithWordBudget(darklight.DefaultWordBudget),
		darklight.WithWorkers(0),
	)
}

// matcherOptions resolves the matcher options as cmd/attributed does for
// an empty -prefilter flag.
func matcherOptions(pipe *darklight.Pipeline) attribution.Options {
	opts := pipe.MatcherOptions()
	mode, err := prefilter.ParseMode("")
	if err != nil {
		panic(err) // the empty mode always parses
	}
	opts.Prefilter.Mode = mode
	return opts
}

// daemon is one running attribution service on a loopback port.
type daemon struct {
	svc  *serve.Service
	srv  *http.Server
	base string
	done chan struct{}
}

// startDaemon builds the service over loader and serves it on loopback. It
// returns once /v1/healthz answers.
func startDaemon(ctx context.Context, pipe *darklight.Pipeline, loader serve.Loader) (*daemon, error) {
	rec := reqtrace.NewRecorder(reqtrace.Options{Ring: reqtrace.DefaultRing, SampleRate: traceSample, Slow: traceSlow})
	svc, err := serve.New(ctx, serve.Config{
		Loader:   loader,
		Options:  matcherOptions(pipe),
		Subjects: pipe.SubjectOptions(),
		APIKeys:  []string{apiKey},
		Burst:    rateBurst,
		MaxBody:  serve.DefaultMaxBody,
		Trace:    rec,
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	obs.AttachDebug(mux, obs.Default())
	obs.RegisterRuntime(obs.Default())
	mux.Handle("/debug/traces", rec.Handler())
	mux.Handle("/debug/traces/", rec.Handler())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		svc: svc,
		srv: &http.Server{
			Handler:           http.TimeoutHandler(mux, handlerTimeout, `{"error":{"code":"timeout","message":"request deadline exceeded","status":503}}`),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       handlerTimeout,
			WriteTimeout:      handlerTimeout + 5*time.Second,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		//lint:ignore errdrop Serve returns ErrServerClosed after close; any other failure shows as failed requests
		d.srv.Serve(ln)
	}()
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	status, body, err := post(ctx, c, d.base+"/v1/healthz", "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz: %d %s", status, body)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the server and waits for its goroutine.
func (d *daemon) close() {
	//lint:ignore errdrop a failed close leaves nothing for the run to do; Serve still returns
	d.srv.Close()
	<-d.done
}

// worldLoader is cmd/attributed's synthetic-world loader, minus the world
// generation: it cleans, refines and splits the raw corpus, and serves the
// main half with the alter egos as the query corpus. raw is consumed (the
// polish runs in place). got receives the corpus it returned. With a span
// recorder (the traced run) the loader also builds the index itself, with
// the call serve.New would make, so the build is timed on its own and the
// replay can call the served matcher.
func worldLoader(pipe *darklight.Pipeline, raw *forum.Dataset, tr *spanRecorder, parent int, got **serve.Corpus) serve.Loader {
	return func(ctx context.Context) (*serve.Corpus, error) {
		mainDS, ae := prepareSplit(ctx, pipe, raw, tr, parent)
		sp := tr.begin(0, parent, "attribution.subjects")
		known, err := pipe.Subjects(mainDS)
		if err != nil {
			return nil, err
		}
		query, err := pipe.Subjects(ae)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c := &serve.Corpus{Known: known, Query: query}
		if tr != nil {
			sp := tr.begin(0, parent, "attribution.index_build")
			c.Matcher, err = attribution.NewMatcherContext(ctx, known, matcherOptions(pipe))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		*got = c
		return c, nil
	}
}

// prepareSplit polishes raw in place, refines it and splits it into the
// main and alter-ego halves.
func prepareSplit(ctx context.Context, pipe *darklight.Pipeline, raw *forum.Dataset, tr *spanRecorder, parent int) (mainDS, ae *forum.Dataset) {
	sp := tr.begin(0, parent, "normalize.polish")
	pipe.PolishContext(ctx, raw)
	tr.end(sp)
	sp = tr.begin(0, parent, "corpus.refine_split")
	mainDS, ae = pipe.SplitAlterEgos(pipe.Refine(raw))
	tr.end(sp)
	return mainDS, ae
}

// storeLoader is cmd/attributed's -index-dir -save-index loader: the
// first load cold-starts from the snapshot, and every load replays new
// journal entries onto the live generation, saves it and compacts the
// journal. query is the query corpus (the alter egos). Each store call is
// timed into tr under parent.
type storeLoader struct {
	st     *store.Store
	query  []attribution.Subject
	subj   attribution.SubjectOptions
	tr     *spanRecorder
	parent int

	mu  sync.Mutex
	cur *store.Index
	// changed is the subject count of each replayed journal batch.
	changed []int
}

func (l *storeLoader) load(ctx context.Context) (*serve.Corpus, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		sp := l.tr.begin(0, l.parent, "store.load")
		idx, err := l.st.Load()
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
		l.cur = idx
	}
	sp := l.tr.begin(0, l.parent, "store.read_journal")
	entries, err := l.st.ReadJournal(l.cur.LastSeq)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = l.tr.begin(0, l.parent, "store.replay")
	next, err := store.Replay(ctx, l.cur, entries, l.subj)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if next != l.cur {
		l.changed = append(l.changed, changedSubjects(entries))
		sp = l.tr.begin(0, l.parent, "store.save")
		err := l.st.Save(next)
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = l.tr.begin(0, l.parent, "store.compact")
		err = l.st.CompactJournal(next.LastSeq)
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	l.cur = next
	return &serve.Corpus{Known: next.Subjects, Query: l.query, Matcher: next.Matcher, LastJournalSeq: &next.LastSeq}, nil
}

// changedSubjects counts the distinct authors a journal batch touches:
// the subjects Replay re-derives.
func changedSubjects(entries []store.JournalEntry) int {
	seen := make(map[string]bool)
	for _, e := range entries {
		for _, m := range e.Thread.Messages {
			seen[m.Author] = true
		}
	}
	return len(seen)
}
