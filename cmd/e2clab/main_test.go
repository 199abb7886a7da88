package main

import (
	"strings"
	"testing"
)

// TestRejectsBadFlags pins that out-of-range protocol flags fail with an
// error naming the flag, before any archive is read or any run starts.
func TestRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		cmd  func([]string) error
		args []string
		flag string
	}{
		{verify, []string{"-max", "-1", dir}, "-max"},
		{verify, []string{"-max", "0", dir}, "-max"},
		{optimize, []string{"-duration", "-5", "-repeat", "0", dir}, "-duration"},
		{optimize, []string{"-duration", "0", dir}, "-duration"},
		{optimize, []string{"-duration", "NaN", dir}, "-duration"},
		{optimize, []string{"-duration", "+Inf", dir}, "-duration"},
		{optimize, []string{"-repeat", "0", dir}, "-repeat"},
		{optimize, []string{"-repeat", "-2", dir}, "-repeat"},
	}
	for _, c := range cases {
		err := c.cmd(c.args)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%v: got %v, want an error naming %s", c.args, err, c.flag)
		}
	}
}
