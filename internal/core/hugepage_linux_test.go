//go:build linux

package core

import (
	"bufio"
	"bytes"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestHugePageSpan: the advised range is the whole 2 MiB pages inside the
// array, never reaches outside it, and is empty under the threshold.
func TestHugePageSpan(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		name               string
		base, size, off, n uintptr
	}{
		{"aligned start, exact multiple", 64 * mib, 8 * mib, 0, 8 * mib},
		{"aligned start, ragged end", 64 * mib, 5 * mib, 0, 4 * mib},
		{"unaligned start, exact multiple", 64*mib + 4096, 8 * mib, 2*mib - 4096, 6 * mib},
		{"unaligned start, ragged end", 65 * mib, 7 * mib, mib, 6 * mib},
		{"at the threshold, unaligned", 64*mib + 16, 4 * mib, 2*mib - 16, 2 * mib},
		{"at the threshold, aligned", 64 * mib, 4 * mib, 0, 4 * mib},
		{"one byte under the threshold", 64 * mib, 4*mib - 1, 0, 0},
		{"one huge page", 64 * mib, 2 * mib, 0, 0},
		{"small", 64*mib + 16, 4096, 0, 0},
		{"empty", 64 * mib, 0, 0, 0},
	}
	for _, c := range cases {
		off, n := hugePageSpan(c.base, c.size)
		if off != c.off || n != c.n {
			t.Errorf("%s: hugePageSpan(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				c.name, c.base, c.size, off, n, c.off, c.n)
		}
	}
	adviseHugePages([]uint64(nil)) // an empty array is advised nothing, and does not fault
	for _, base := range []uintptr{64 * mib, 64*mib + 8, 64*mib + 4096, 65*mib + 16, 66*mib - 8} {
		for size := uintptr(3 * mib); size <= 9*mib; size += mib / 2 {
			off, n := hugePageSpan(base, size)
			switch {
			case size < hugePageMin && n != 0:
				t.Errorf("(%#x, %#x): %#x bytes advised under the threshold", base, size, n)
			case size >= hugePageMin && n == 0:
				t.Errorf("(%#x, %#x): nothing advised", base, size)
			case off+n > size:
				t.Errorf("(%#x, %#x): range [%#x, %#x) reaches outside the array", base, size, off, off+n)
			case n != 0 && ((base+off)%hugePageSize != 0 || n%hugePageSize != 0):
				t.Errorf("(%#x, %#x): range [%#x, %#x) is not 2 MiB-aligned", base, size, off, off+n)
			case n != 0 && (off >= hugePageSize || size-off-n >= hugePageSize):
				t.Errorf("(%#x, %#x): range [%#x, %#x) leaves a whole huge page out", base, size, off, off+n)
			}
		}
	}
}

// TestHugePageAdvice: a main-table array of at least 8 MiB is advised for
// huge pages (smaps VmFlags "hg") after New, after Grow, after a snapshot
// round trip, and in a blocked table.
func TestHugePageAdvice(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages are off or absent (mode %q, %v)", bytes.TrimSpace(mode), err)
	}
	tab := mustNew(t, Config{BucketsPerTable: 1 << 18, Seed: 61}) // 12 MiB of cells
	requireHugePageAdvice(t, "New", tab.cells)
	if err := tab.Grow(1.5); err != nil {
		t.Fatal(err)
	}
	requireHugePageAdvice(t, "Grow", tab.cells)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireHugePageAdvice(t, "Load", loaded.cells)

	blocked := mustNewBlocked(t, Config{BucketsPerTable: 1 << 17, Slots: 3, Seed: 62}) // 9 MiB of keys
	requireHugePageAdvice(t, "NewBlocked", blocked.keys)
	if err := blocked.Grow(1); err != nil {
		t.Fatal(err)
	}
	requireHugePageAdvice(t, "blocked Grow", blocked.keys)
}

// requireHugePageAdvice fails unless the /proc/self/smaps mapping holding the
// middle of s carries the "hg" (MADV_HUGEPAGE) VmFlag. An array of at least
// 8 MiB has its middle at least 4 MiB from either end, inside the advised
// 2 MiB-aligned interior.
func requireHugePageAdvice[E any](t *testing.T, stage string, s []E) {
	t.Helper()
	v := reflect.ValueOf(s)
	size := uintptr(v.Len()) * v.Type().Elem().Size()
	if size < 8<<20 {
		t.Fatalf("%s: array of %d bytes is too small to test", stage, size)
	}
	addr := v.Pointer() + size/2
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	inside := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				inside = uint64(addr) >= start && uint64(addr) < end
				continue
			}
		}
		if inside && fields[0] == "VmFlags:" {
			for _, flag := range fields[1:] {
				if flag == "hg" {
					return
				}
			}
			t.Fatalf("%s: mapping of the array lacks the hg flag: %s", stage, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%s: no smaps mapping with VmFlags covers %#x", stage, addr)
}
