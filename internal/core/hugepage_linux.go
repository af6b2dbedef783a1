//go:build linux

package core

import (
	"syscall"
	"unsafe"
)

const (
	// hugePageSize is the transparent huge page size (a PMD page on x86-64
	// and on arm64 with 4 KiB base pages).
	hugePageSize = 2 << 20
	// hugePageMin is the smallest array that is advised. Below it an array
	// holds at most one whole huge page, and the second-level TLB's 4 KiB
	// entries already map all of it, so the advice would buy nothing.
	hugePageMin = 4 << 20
)

// adviseHugePages asks the kernel to back the whole 2 MiB pages inside s
// with transparent huge pages, when s spans at least hugePageMin bytes.
// Callers pass a freshly made main-table array before its first write, so
// the first touch of each 2 MiB page can fault in a huge page; one TLB
// entry then maps 512 times as many buckets. The advice changes no
// behaviour, so its error is ignored: with THP set to never, or no THP in
// the kernel, the array stays on 4 KiB pages.
func adviseHugePages[E any](s []E) {
	size := uintptr(len(s)) * unsafe.Sizeof(s[0]) // s[0] is not evaluated
	base := unsafe.Pointer(unsafe.SliceData(s))
	off, n := hugePageSpan(uintptr(base), size)
	if n == 0 {
		return
	}
	b := unsafe.Slice((*byte)(base), size)
	_ = syscall.Madvise(b[off:off+n], syscall.MADV_HUGEPAGE)
}

// hugePageSpan returns the 2 MiB-aligned interior of the size-byte array at
// address base, as an offset from base and a length: the whole huge pages
// that lie inside the array. n is 0 for arrays under hugePageMin; any larger
// array contains at least one whole huge page.
func hugePageSpan(base, size uintptr) (off, n uintptr) {
	if size < hugePageMin {
		return 0, 0
	}
	lo := (base + hugePageSize - 1) &^ (hugePageSize - 1)
	hi := (base + size) &^ (hugePageSize - 1)
	return lo - base, hi - lo
}
