package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"darklight/internal/forum"
)

// testSources is a small stand-in corpus for the traffic generators.
func testSources() ([]string, []inlineSource, map[string][]forum.Message) {
	t0 := time.Date(2017, 3, 4, 10, 0, 0, 0, time.UTC)
	var names []string
	var srcs []inlineSource
	pool := make(map[string][]forum.Message)
	for a := 0; a < 8; a++ {
		name := fmt.Sprintf("alias%d", a)
		names = append(names, name)
		src := inlineSource{Alias: name}
		for m := 0; m < 12; m++ {
			src.Messages = append(src.Messages, forum.Message{
				ID: fmt.Sprintf("%s-%d", name, m), Author: name,
				Body:     fmt.Sprintf("post %d of %s about stealth shipping and escrow", m, name),
				PostedAt: t0.Add(time.Duration(a*100+m) * time.Hour),
			})
		}
		srcs = append(srcs, src)
		pool[name] = src.Messages
	}
	return names, srcs, pool
}

// inputsFor renders every kind of input a seed produces.
func inputsFor(seed uint64) ([]time.Duration, []request, []request, []forum.ThreadRecord) {
	names, srcs, pool := testSources()
	sched := poissonCount(stream(seed, "schedule-nominal"), 20, 40)
	probe := poissonCount(stream(seed, "schedule-probe"), 30, 40)
	rank := rankRequests(stream(seed, "rank-nominal"), names, sched)
	inline := inlineRequests(stream(seed, "inline-nominal"), fmt.Sprint(seed), srcs, probe)
	journal := journalBatch(stream(seed, "journal-0"), seed, 0, names[:4], pool, names)
	return sched, rank, inline, journal
}

func TestInputsReproducible(t *testing.T) {
	s1, r1, i1, j1 := inputsFor(7)
	s2, r2, i2, j2 := inputsFor(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(j1, j2) {
		t.Fatal("one seed produced two different sets of inputs")
	}
	if len(s1) == 0 || len(r1) != len(s1) || len(i1) != 40 || len(j1) != journalThreads {
		t.Fatalf("unexpected input sizes: %d due times, %d rank, %d inline, %d threads", len(s1), len(r1), len(i1), len(j1))
	}

	s3, r3, i3, j3 := inputsFor(8)
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(i1, i3) || reflect.DeepEqual(j1, j3) {
		t.Error("seeds 7 and 8 gave the same request bytes")
	}
}

func TestInlineBodiesUnique(t *testing.T) {
	_, _, inline, _ := inputsFor(3)
	seen := make(map[string]bool)
	for _, r := range inline {
		if seen[string(r.Body)] {
			t.Fatalf("duplicate inline body %s", r.Body)
		}
		seen[string(r.Body)] = true
	}
}

func TestPoissonRate(t *testing.T) {
	sched := poissonCount(stream(1, "rate"), 50, 1000)
	if last := sched[len(sched)-1]; last < 18*time.Second || last > 22*time.Second {
		t.Errorf("1000 arrivals at 50/s span %v, want about 20s", last)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule not ordered at %d", i)
		}
	}
}

func TestJournalBatchMixesAuthors(t *testing.T) {
	_, _, _, recs := inputsFor(5)
	known, fresh := 0, 0
	ids := make(map[string]bool)
	for _, rec := range recs {
		author := rec.Messages[0].Author
		if _, ok := map[string]bool{"alias0": true, "alias1": true, "alias2": true, "alias3": true}[author]; ok {
			known++
		} else {
			fresh++
		}
		for _, m := range rec.Messages {
			if m.Author != author || ids[m.ID] {
				t.Fatalf("thread %s: bad message %+v", rec.Thread, m)
			}
			ids[m.ID] = true
		}
	}
	if known == 0 || fresh == 0 {
		t.Errorf("batch has %d threads by indexed authors and %d by new ones, want both", known, fresh)
	}
}
