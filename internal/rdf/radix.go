package rdf

import (
	"slices"
	"sync"
)

// sortBufs are scratch buffers of the sorts below, pooled: an index build
// runs per insert and per loaded segment, a read sorts per column and per
// join step, and the buffers serve the next sort instead of becoming
// garbage.
type sortBufs struct {
	keys []uint64
	idx  []uint32
}

var sortPool = sync.Pool{New: func() any { return new(sortBufs) }}

// getSortBufs returns pooled buffers with keys and idx n long; the caller
// puts them back.
func getSortBufs(n int) *sortBufs {
	buf := sortPool.Get().(*sortBufs)
	buf.keys = slices.Grow(buf.keys[:0], n)[:n]
	buf.idx = slices.Grow(buf.idx[:0], n)[:n]
	return buf
}

// RadixSort sorts keys stably by their bytes from the from-th up (byte 0 is
// the least significant), moving idx (when not nil) along: an LSD radix sort,
// one counting pass per byte, skipping the bytes every key shares (a few
// keys take an insertion sort). Sorting id<<32|payload keys from byte 4
// orders them by id and keeps the payloads of one id in input order. It is
// the one sort kernel of the index builds here and of the query merge.
func RadixSort(keys []uint64, idx []uint32, from int) {
	// Below 48 keys an insertion sort takes fewer steps than one pass over
	// 256 buckets: without it the query package's BenchmarkQueryFleet sel
	// and joinsel (a few rows per merged column) run ≈ 12 % slower, count
	// ≈ 4 % (2-vCPU box).
	if len(keys) < 48 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j]>>(8*from) < keys[j-1]>>(8*from); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
				if idx != nil {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
		}
		return
	}
	buf := getSortBufs(len(keys))
	defer sortPool.Put(buf)
	src, dst, srcIdx, dstIdx := keys, buf.keys, idx, buf.idx[:len(idx)]
	var or, and uint64 = 0, ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	for shift := 8 * from; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range src {
			start[byte(k>>shift)]++
		}
		for d, sum := 0, 0; d < 256; d++ {
			start[d], sum = sum, sum+start[d]
		}
		for i, k := range src {
			d := byte(k >> shift)
			dst[start[d]] = k
			if idx != nil {
				dstIdx[start[d]] = srcIdx[i]
			}
			start[d]++
		}
		src, dst, srcIdx, dstIdx = dst, src, dstIdx, srcIdx
	}
	copy(keys, src)
	copy(idx, srcIdx)
}

// sortSPO returns a new slice of tri's triples sorted by (S, P, O): stably
// by O, then stably by S<<32|P. b holds keys and idx at least len(tri) long
// (getSortBufs).
func (b *sortBufs) sortSPO(tri []Triple) []Triple {
	keys, idx := b.keys[:len(tri)], b.idx[:len(tri)]
	for i, t := range tri {
		keys[i], idx[i] = uint64(t.O), uint32(i)
	}
	RadixSort(keys, idx, 0)
	for j, i := range idx {
		keys[j] = uint64(tri[i].S)<<32 | uint64(tri[i].P)
	}
	RadixSort(keys, idx, 0)
	sorted := make([]Triple, len(tri))
	for j, i := range idx {
		sorted[j] = tri[i]
	}
	return sorted
}
