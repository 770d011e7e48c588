package main

// Library-path references: what the daemon must answer, computed by calling
// the packages directly and encoding the documented /v1 response shapes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/serve"
)

// decodeStrict decodes one JSON request body the way the daemon does:
// unknown fields and trailing data are errors.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the request object")
	}
	return nil
}

// toCandidates is the wire form of a scored list: score descending, ties
// by ascending alias, never null.
func toCandidates(scored []attribution.Scored) []serve.Candidate {
	out := make([]serve.Candidate, len(scored))
	for i, c := range scored {
		out[i] = serve.Candidate{Alias: c.Name, Score: c.Score}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Alias < out[j].Alias
	})
	return out
}

// encodeBody is the daemon's response encoding: compact JSON plus a newline.
func encodeBody(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // response structs hold only strings, numbers and bools
	}
	return append(data, '\n')
}

// rankBody is the /v1/rank response for a by-alias query without the
// prefilter knob.
func rankBody(version int, subject string, scored []attribution.Scored) []byte {
	return encodeBody(serve.RankResponse{IndexVersion: version, Subject: subject, Candidates: toCandidates(scored)})
}

// matchBody is the /v1/match response for one match result.
func matchBody(version int, res *attribution.MatchResult, threshold float64) []byte {
	out := serve.MatchResponse{
		IndexVersion: version,
		Subject:      res.Unknown,
		Candidates:   toCandidates(res.Candidates),
		Rescored:     toCandidates(res.Rescored),
		Accepted:     res.Accepted,
		Threshold:    threshold,
	}
	if res.Best.Name != "" {
		out.Best = &serve.Candidate{Alias: res.Best.Name, Score: res.Best.Score}
	}
	return encodeBody(out)
}

// inlineSubject builds an inline request subject through BuildSubjects,
// with the message ids the daemon assigns (request order).
func inlineSubject(spec serve.SubjectSpec, opts attribution.SubjectOptions) (*attribution.Subject, error) {
	ds := forum.NewDataset("inline", forum.PlatformSynthetic)
	a := forum.Alias{Name: spec.Name, Messages: make([]forum.Message, len(spec.Messages))}
	for i, m := range spec.Messages {
		t, err := time.Parse(time.RFC3339, m.Time)
		if err != nil {
			return nil, fmt.Errorf("messages[%d].time: %w", i, err)
		}
		a.Messages[i] = forum.Message{ID: fmt.Sprintf("q%06d", i), Author: spec.Name, Body: m.Body, PostedAt: t}
	}
	ds.Add(a)
	subs, err := attribution.BuildSubjects(ds, opts)
	if err != nil {
		return nil, err
	}
	return &subs[0], nil
}

// quality scores links against the alter-ego ground truth: a link is
// correct iff the linked alias has the query's own name.
type quality struct {
	n, accepted, correct, inTopK int
}

// add scores one answer: the stage-1 candidates, the decided best
// candidate, and whether it cleared the threshold.
func (q *quality) add(truth string, candidates []serve.Candidate, best string, accepted bool) {
	q.n++
	for _, c := range candidates {
		if c.Alias == truth {
			q.inTopK++
			break
		}
	}
	if accepted {
		q.accepted++
		if best == truth {
			q.correct++
		}
	}
}

// addRank scores a stage-1-only answer. Stage 1 makes no accept decision
// (its scores are not on the threshold's scale), so the top candidate is
// the link: precision and recall both read as top-1 accuracy.
func (q *quality) addRank(truth string, candidates []serve.Candidate) {
	best := ""
	if len(candidates) > 0 {
		best = candidates[0].Alias
	}
	q.add(truth, candidates, best, best != "")
}

func (q *quality) precision() float64 { return ratio(q.correct, q.accepted) }
func (q *quality) recall() float64    { return ratio(q.correct, q.n) }
func (q *quality) accAt10() float64   { return ratio(q.inTopK, q.n) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report adds the three quality metrics to an untraced run.
func (q *quality) report(r *run) {
	if r.trace {
		return
	}
	r.add("precision", q.precision(), "ratio", q.accepted, fmt.Sprintf("%d of %d accepted links correct", q.correct, q.accepted))
	r.add("recall", q.recall(), "ratio", q.n, fmt.Sprintf("%d of %d queries linked correctly", q.correct, q.n))
	r.add("acc_at_10", q.accAt10(), "ratio", q.n, fmt.Sprintf("%d of %d true aliases in the stage-1 top-k", q.inTopK, q.n))
}

// checkRank compares each answered by-alias /v1/rank response with its
// reference and scores it. ref returns the reference body for an alias.
func (r *run) checkRank(reqs []request, res []sent, ref func(alias string) ([]byte, error), q *quality) error {
	for i := range res {
		s := &res[i]
		if s.Done == 0 || !s.OK() {
			continue
		}
		want, err := ref(reqs[i].Alias)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.Body, want) {
			r.mismatch("rank %s: got %q, want %q", reqs[i].Alias, s.Body, want)
			continue
		}
		var resp serve.RankResponse
		if err := json.Unmarshal(s.Body, &resp); err != nil {
			r.mismatch("rank %s: undecodable response: %v", reqs[i].Alias, err)
			continue
		}
		q.addRank(reqs[i].Alias, resp.Candidates)
	}
	return nil
}

// statusError describes a failed request for the report.
func statusError(s *sent) string {
	if s.Err != nil {
		return s.Err.Error()
	}
	return fmt.Sprintf("%d %s %s", s.Status, http.StatusText(s.Status), bytes.TrimSpace(s.Body))
}
