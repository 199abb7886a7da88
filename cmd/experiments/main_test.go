package main

import (
	"math"
	"testing"

	"e2clab/internal/core"
)

func TestCheckProtocol(t *testing.T) {
	if err := core.CheckProtocol(300, 2); err != nil {
		t.Errorf("default protocol rejected: %v", err)
	}
	bad := []struct {
		duration float64
		repeat   int
	}{
		{0, 2},
		{-5, 2},
		{math.NaN(), 2},
		{math.Inf(1), 2},
		{300, 0},
		{300, -1},
	}
	for _, c := range bad {
		if err := core.CheckProtocol(c.duration, c.repeat); err == nil {
			t.Errorf("core.CheckProtocol(%v, %d) accepted", c.duration, c.repeat)
		}
	}
}
