//go:build !linux

package funcmodel

// dropPages is a no-op where the kernel is not asked to drop pages.
func dropPages([]byte, uint32, uint32) {}
