//go:build linux

package graph

import (
	"syscall"
	"testing"
	"unsafe"
)

// reservedInt32s returns an n-element []int32 backed by an anonymous
// PROT_NONE, MAP_NORESERVE mapping: the address range is reserved but no
// page is ever committed, so a test can hand a bounds gate a slice whose
// length alone is what matters. Reading or writing any element faults.
func reservedInt32s(t *testing.T, n int) ([]int32, bool) {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Logf("reserve %d int32s: %v", n, err)
		return nil, false
	}
	t.Cleanup(func() { _ = syscall.Munmap(b) })
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), true
}
