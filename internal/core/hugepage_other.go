//go:build !linux

package core

// adviseHugePages is a no-op outside Linux: the array stays on the
// allocator's default pages.
func adviseHugePages[E any](s []E) {}
