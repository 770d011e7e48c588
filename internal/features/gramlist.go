package features

import "slices"

// GramEntry is one (gram id, count) pair of an id-sorted gram list.
type GramEntry struct {
	ID    GramID
	Count int32
}

// SortedDoc is a Doc flattened into id-sorted slices. It carries exactly
// the information of a Doc but in a form the stage-2 kernel (GramKernel)
// can merge linearly: hash maps are where a per-query stage-2 vocabulary
// rebuild spends most of its time, and none survive here. A SortedDoc is
// also ~2-3× smaller than the Doc's maps, which matters for the matcher's
// per-subject cache.
type SortedDoc struct {
	WordGrams  []GramEntry
	CharGrams  []GramEntry
	WordTotal  int
	CharTotal  int
	Freq       [NumFreqFeatures]float64
	TotalChars int
}

// Sorted flattens the Doc. The Doc itself is unchanged and can be dropped.
func (d *Doc) Sorted() *SortedDoc {
	return &SortedDoc{
		WordGrams:  sortedEntries(d.WordGrams),
		CharGrams:  sortedEntries(d.CharGrams),
		WordTotal:  d.WordTotal,
		CharTotal:  d.CharTotal,
		Freq:       d.Freq,
		TotalChars: d.TotalChars,
	}
}

func sortedEntries(m map[GramID]int) []GramEntry {
	out := make([]GramEntry, 0, len(m))
	for g, c := range m {
		out = append(out, GramEntry{ID: g, Count: int32(c)})
	}
	slices.SortFunc(out, func(a, b GramEntry) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	return out
}
