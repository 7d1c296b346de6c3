//go:build !linux

package graph

import "testing"

// reservedInt32s has no uncommitted-reservation backing off linux; callers
// skip the case rather than allocate the slice for real.
func reservedInt32s(t *testing.T, n int) ([]int32, bool) { return nil, false }
