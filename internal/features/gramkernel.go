package features

import "math"

// GramKernel computes stage 2's gram-block dot products (§IV-E) in rank
// space: the candidates' vocabulary is never built as a table. A tagged
// merge of the candidates' id-sorted gram lists and the unknown's turns
// every gram into one run of (doc, count) entries; a stable radix sort of
// the runs by frequency gives topN's (frequency desc, id asc) order, which
// is the feature index; and two walks in that order accumulate each
// document's norm and each candidate's dot with the unknown. Every float
// operation matches VocabBuilder.Build + Vocabulary.VectorizeGrams +
// sparse.Normalize + sparse.Dot over the same documents, in the same
// order, so the dots are bit-identical (DESIGN.md §14; pinned by
// gramkernel_test.go).
//
// The zero value is ready; buffers grow to the largest query seen. A
// kernel must not be used concurrently.
type GramKernel struct {
	lists  [][]GramEntry
	a, b   []tagEntry // ping-pong merge buffers
	bounds []int      // run boundaries between merge levels
	next   []int
	rank   []rankEntry // vocabulary runs, ranked in place
	tmp    []rankEntry // radix sort scratch
	shared []sharedEntry
	dens   []float64 // per-doc gram total of the current section, ≥ 1
	idfs   []float64 // idf by document frequency
	norm   []float64 // per-doc sum of squared values
	dot    []float64
	has    []bool
}

// tagEntry is one (gram, doc, count) entry of the merged sequence.
type tagEntry struct {
	id    GramID
	doc   int32
	count int32
}

// rankEntry is one vocabulary gram: the bounds of its run in the merged
// sequence and its corpus frequency over the candidates.
type rankEntry struct {
	freq       uint64
	start, end uint32
}

// sharedEntry is one weighted entry of a kept run that contains the
// unknown; the unknown's own entry closes each run.
type sharedEntry struct {
	doc int32
	val float64
}

// Dots scores the unknown u against the candidate documents under cfg's
// gram budgets (negative means unlimited). dot[j] is the dot product of
// candidate j's and u's unit-normalised gram vectors in the vocabulary
// selected over cands; has[j] reports that candidate j has at least one
// vocabulary gram (a gram block, even if its idf weights are all zero) and
// uHas the same for u. Duplicate candidates count as separate documents,
// as they would in a VocabBuilder. Both slices alias the kernel's scratch
// and are valid until the next call.
func (k *GramKernel) Dots(cfg Config, cands []*SortedDoc, u *SortedDoc) (dot []float64, has []bool, uHas bool) {
	n := len(cands)
	k.norm = resize(k.norm, n+1)
	k.dot = resize(k.dot, n)
	k.has = resize(k.has, n+1)
	k.dens = resize(k.dens, n+1)
	// idf depends only on df ∈ [1, n]: n+1 logarithms per query instead of
	// one per vocabulary gram.
	k.idfs = resize(k.idfs, n+1)
	for df := 1; df <= n; df++ {
		k.idfs[df] = idf(float64(n), float64(df))
	}
	k.shared = k.shared[:0]

	k.section(cands, u, false, cfg.MaxWordGrams)
	k.section(cands, u, true, cfg.MaxCharGrams)

	// Normalise: 1/‖v‖, or 1 for a zero-norm vector, which Normalize
	// leaves untouched.
	inv := k.norm
	for d, s := range inv {
		if s == 0 {
			inv[d] = 1
		} else {
			inv[d] = 1 / math.Sqrt(s)
		}
	}
	// Stream the dot products in feature-index order. Products are
	// rounded before they are added, as in sparse.Dot, so no architecture
	// can fuse them into an FMA and drift from the reference.
	from := 0
	for at, e := range k.shared {
		if int(e.doc) != n {
			continue
		}
		uv := e.val * inv[n]
		for _, c := range k.shared[from:at] {
			k.dot[c.doc] += float64(uv * (c.val * inv[c.doc]))
		}
		from = at + 1
	}
	clear(k.lists) // keep no document alive past the call
	return k.dot, k.has[:n], k.has[n]
}

// section runs one gram family (word or char grams) through merge,
// ranking and the first (norm) pass, appending its kept runs that contain
// the unknown — doc slot len(cands) — to k.shared in rank order.
func (k *GramKernel) section(cands []*SortedDoc, u *SortedDoc, chars bool, budget int) {
	unknown := int32(len(cands))
	k.lists = grow(k.lists, len(cands)+1)
	for j := range k.lists {
		d := u
		if j < len(cands) {
			d = cands[j]
		}
		grams, total := d.WordGrams, d.WordTotal
		if chars {
			grams, total = d.CharGrams, d.CharTotal
		}
		k.lists[j], k.dens[j] = grams, float64(max(total, 1))
	}
	merged := k.merge(k.lists)

	// Runs of equal ids, in ascending id order; a gram only the unknown
	// has is outside the vocabulary.
	rank := k.rank[:0]
	for s := 0; s < len(merged); {
		id := merged[s].id
		e, freq := s, uint64(0)
		for ; e < len(merged) && merged[e].id == id; e++ {
			if merged[e].doc != unknown {
				freq += uint64(merged[e].count)
			}
		}
		if merged[s].doc != unknown {
			rank = append(rank, rankEntry{freq: freq, start: uint32(s), end: uint32(e)})
		}
		s = e
	}
	k.rank = rank
	rank = k.sortByFreqDesc()
	if budget >= 0 && len(rank) > budget {
		rank = rank[:budget]
	}

	// Pass 1 in rank order: weight every entry exactly as VectorizeGrams
	// does and add its square to its doc's norm in feature-index order.
	for _, r := range rank {
		run := merged[r.start:r.end]
		withU := run[len(run)-1].doc == unknown
		df := len(run)
		if withU {
			df--
		}
		w := k.idfs[df]
		for _, e := range run {
			x := float64(e.count) / k.dens[e.doc] * w
			k.norm[e.doc] += float64(x * x)
			k.has[e.doc] = true
			if withU {
				k.shared = append(k.shared, sharedEntry{doc: e.doc, val: x})
			}
		}
	}
}

// merge lays the id-sorted lists out as one (id, doc) ordered sequence by
// pairwise merging adjacent runs level by level. On equal ids the left
// run's entry goes first, and runs stay in doc order, so the entries of
// one gram list their docs in ascending order. The result aliases the
// kernel's merge buffers.
func (k *GramKernel) merge(lists [][]GramEntry) []tagEntry {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	src, dst := grow(k.a, total), grow(k.b, total)
	bounds := append(k.bounds[:0], 0)
	at := 0
	for doc, l := range lists {
		for _, e := range l {
			src[at] = tagEntry{id: e.ID, doc: int32(doc), count: e.Count}
			at++
		}
		if at > bounds[len(bounds)-1] {
			bounds = append(bounds, at)
		}
	}
	next := k.next[:0]
	for len(bounds) > 2 {
		next = append(next[:0], 0)
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			mergeTagged(dst, src, bounds[i], bounds[i+1], bounds[i+2])
			next = append(next, bounds[i+2])
		}
		if i+1 < len(bounds) {
			copy(dst[bounds[i]:bounds[i+1]], src[bounds[i]:bounds[i+1]])
			next = append(next, bounds[i+1])
		}
		src, dst = dst, src
		bounds, next = next, bounds
	}
	k.a, k.b, k.bounds, k.next = src, dst, bounds, next
	return src
}

// mergeTagged merges the adjacent sorted runs src[lo:mid] and
// src[mid:hi] into out[lo:hi], taking the left run's entry first on equal
// ids. The loop selects the source index rather than branching on the
// comparison, so the compiler can use a conditional move: merged gram
// lists interleave unpredictably, and a mispredicted branch per entry
// would dominate the merge.
func mergeTagged(out, src []tagEntry, lo, mid, hi int) {
	i, j, o := lo, mid, lo
	for i < mid && j < hi {
		c := 0
		if src[j].id < src[i].id {
			c = 1
		}
		out[o] = src[i+(j-i)&-c]
		o++
		i += 1 - c
		j += c
	}
	o += copy(out[o:], src[i:mid])
	copy(out[o:], src[j:hi])
}

// sortByFreqDesc orders k.rank by descending frequency with a stable LSD
// radix sort on ^freq, so equal frequencies keep their ascending id order:
// exactly topN's (frequency desc, id asc). A byte that is the same in
// every key does not reorder anything and is skipped; counts in practice
// span two or three bytes. It returns the sorted k.rank.
func (k *GramKernel) sortByFreqDesc() []rankEntry {
	src := k.rank
	if len(src) < 2 {
		return src
	}
	var or, and uint64 = 0, ^uint64(0)
	for _, r := range src {
		or |= r.freq
		and &= r.freq
	}
	dst := grow(k.tmp, len(src))
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		clear(counts[:])
		for _, r := range src {
			counts[^r.freq>>shift&0xff]++
		}
		sum := 0
		for d, c := range counts {
			counts[d], sum = sum, sum+c
		}
		for _, r := range src {
			d := ^r.freq >> shift & 0xff
			dst[counts[d]] = r
			counts[d]++
		}
		src, dst = dst, src
	}
	k.rank, k.tmp = src, dst
	return src
}

// grow returns s with length n, reusing its capacity; the contents are
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resize is grow with every element zeroed.
func resize[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}
