package netem

import (
	"math"
	"testing"
)

func TestBetweenDirectional(t *testing.T) {
	n := New(Rule{Src: "edge", Dst: "cloud", DelayMS: 50, RateGbps: 10})
	r := n.Between("edge", "cloud")
	if r.DelayMS != 50 || r.RateGbps != 10 {
		t.Errorf("rule = %+v", r)
	}
	back := n.Between("cloud", "edge")
	if back.DelayMS != 0 {
		t.Errorf("directional rule applied backwards: %+v", back)
	}
}

func TestBetweenSymmetric(t *testing.T) {
	n := New(Rule{Src: "edge", Dst: "cloud", DelayMS: 20, Symmetric: true})
	if n.Between("cloud", "edge").DelayMS != 20 {
		t.Error("symmetric rule not applied in reverse")
	}
}

func TestRuleComposition(t *testing.T) {
	n := New(
		Rule{Src: "edge", Dst: "cloud", DelayMS: 10, RateGbps: 10},
		Rule{Src: "edge", Dst: "cloud", DelayMS: 5, RateGbps: 1},
	)
	r := n.Between("edge", "cloud")
	if r.DelayMS != 15 {
		t.Errorf("delays should add: %v", r.DelayMS)
	}
	if r.RateGbps != 1 {
		t.Errorf("lowest rate should win: %v", r.RateGbps)
	}
}

func TestLossComposition(t *testing.T) {
	n := New(
		Rule{Src: "a", Dst: "b", LossPct: 10},
		Rule{Src: "a", Dst: "b", LossPct: 10},
	)
	r := n.Between("a", "b")
	// 1 - 0.9*0.9 = 19%
	if math.Abs(r.LossPct-19) > 1e-9 {
		t.Errorf("LossPct = %v, want 19", r.LossPct)
	}
}

func TestTransferSeconds(t *testing.T) {
	n := New(Rule{Src: "edge", Dst: "cloud", DelayMS: 100, RateGbps: 0.001}) // 1 Mbit/s
	// 1 MB at 1 Mbit/s = 8 s serialization + 0.1 s delay.
	got := n.TransferSeconds("edge", "cloud", 1e6)
	if math.Abs(got-8.1) > 1e-9 {
		t.Errorf("TransferSeconds = %v, want 8.1", got)
	}
}

func TestTransferWithLoss(t *testing.T) {
	n := New(Rule{Src: "a", Dst: "b", DelayMS: 100, LossPct: 50})
	if got := n.TransferSeconds("a", "b", 0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("lossy transfer = %v, want 0.2 (doubled)", got)
	}
}

func TestTransferFullyLossy(t *testing.T) {
	// A single 100%-loss rule: nothing ever gets through, so the expected
	// transfer time is +Inf, not a finite (delay-only) value.
	n := New(Rule{Src: "a", Dst: "b", DelayMS: 100, LossPct: 100})
	if got := n.TransferSeconds("a", "b", 1e6); !math.IsInf(got, 1) {
		t.Errorf("fully lossy transfer = %v, want +Inf", got)
	}

	// Composed rules reaching 100%: Validate accepts each rule, Between
	// composes losses to exactly 100, and the transfer must still be +Inf.
	comp := New(
		Rule{Src: "edge", Dst: "cloud", DelayMS: 10, LossPct: 60},
		Rule{Src: "edge", Dst: "cloud", DelayMS: 5, LossPct: 100},
	)
	if err := comp.Validate([]string{"edge", "cloud"}); err != nil {
		t.Fatalf("Validate rejected composable rules: %v", err)
	}
	if got := comp.Between("edge", "cloud").LossPct; got != 100 {
		t.Fatalf("composed LossPct = %v, want 100", got)
	}
	if got := comp.TransferSeconds("edge", "cloud", 1e6); !math.IsInf(got, 1) {
		t.Errorf("composed fully lossy transfer = %v, want +Inf", got)
	}
}

func TestTransferUnconstrained(t *testing.T) {
	n := New()
	if got := n.TransferSeconds("x", "y", 1e9); got != 0 {
		t.Errorf("unconstrained transfer = %v, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	n := New(Rule{Src: "edge", Dst: "cloud", DelayMS: 10})
	if err := n.Validate([]string{"edge", "cloud"}); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
	if err := n.Validate([]string{"edge"}); err == nil {
		t.Error("unknown dst layer accepted")
	}
	bad := New(Rule{Src: "a", Dst: "b", LossPct: 150})
	if err := bad.Validate([]string{"a", "b"}); err == nil {
		t.Error("loss > 100% accepted")
	}
	neg := New(Rule{Src: "a", Dst: "b", DelayMS: -1})
	if err := neg.Validate([]string{"a", "b"}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestRulesCopy(t *testing.T) {
	n := New(Rule{Src: "a", Dst: "b", DelayMS: 1})
	rs := n.Rules()
	rs[0].DelayMS = 99
	if n.Between("a", "b").DelayMS != 1 {
		t.Error("Rules leaked internal slice")
	}
}
