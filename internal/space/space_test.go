package space

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloatFromUnitBounds(t *testing.T) {
	d := Float("x", -2, 10)
	if got := d.FromUnit(0); got != -2 {
		t.Errorf("FromUnit(0) = %v, want -2", got)
	}
	if got := d.FromUnit(1); got != 10 {
		t.Errorf("FromUnit(1) = %v, want 10", got)
	}
	if got := d.FromUnit(0.5); got != 4 {
		t.Errorf("FromUnit(0.5) = %v, want 4", got)
	}
}

func TestFloatFromUnitClampsOutOfRange(t *testing.T) {
	d := Float("x", 0, 1)
	if got := d.FromUnit(-0.5); got != 0 {
		t.Errorf("FromUnit(-0.5) = %v, want 0", got)
	}
	if got := d.FromUnit(1.5); got != 1 {
		t.Errorf("FromUnit(1.5) = %v, want 1", got)
	}
}

func TestLogFloatFromUnit(t *testing.T) {
	d := LogFloat("lr", 1e-4, 1e-1)
	if got := d.FromUnit(0); math.Abs(got-1e-4) > 1e-12 {
		t.Errorf("FromUnit(0) = %v, want 1e-4", got)
	}
	if got := d.FromUnit(1); math.Abs(got-1e-1) > 1e-12 {
		t.Errorf("FromUnit(1) = %v, want 1e-1", got)
	}
	// Midpoint in log space is the geometric mean.
	want := math.Sqrt(1e-4 * 1e-1)
	if got := d.FromUnit(0.5); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("FromUnit(0.5) = %v, want %v", got, want)
	}
}

func TestIntFromUnitCoversAllValuesUniformly(t *testing.T) {
	d := Int("extract", 3, 9)
	counts := map[int]int{}
	n := 7000
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / float64(n)
		counts[int(d.FromUnit(u))]++
	}
	for v := 3; v <= 9; v++ {
		if counts[v] != n/7 {
			t.Errorf("value %d drawn %d times, want %d", v, counts[v], n/7)
		}
	}
	if len(counts) != 7 {
		t.Errorf("got %d distinct values, want 7: %v", len(counts), counts)
	}
}

func TestIntFromUnitEdge(t *testing.T) {
	d := Int("x", 0, 4)
	if got := d.FromUnit(1); got != 4 {
		t.Errorf("FromUnit(1) = %v, want 4", got)
	}
	if got := d.FromUnit(0); got != 0 {
		t.Errorf("FromUnit(0) = %v, want 0", got)
	}
}

func TestCategoricalFromUnit(t *testing.T) {
	d := Categorical("est", "ET", "RF", "GBRT")
	if got := d.FromUnit(0.1); got != 0 {
		t.Errorf("FromUnit(0.1) = %v, want 0", got)
	}
	if got := d.FromUnit(0.5); got != 1 {
		t.Errorf("FromUnit(0.5) = %v, want 1", got)
	}
	if got := d.FromUnit(1.0); got != 2 {
		t.Errorf("FromUnit(1.0) = %v, want 2", got)
	}
}

func TestRoundTripPropertyFloat(t *testing.T) {
	d := Float("x", 5, 25)
	f := func(raw float64) bool {
		u := math.Mod(math.Abs(raw), 1)
		v := d.FromUnit(u)
		u2 := d.ToUnit(v)
		return math.Abs(u-u2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripPropertyInt(t *testing.T) {
	d := Int("x", -3, 17)
	f := func(raw float64) bool {
		u := math.Mod(math.Abs(raw), 1)
		v := d.FromUnit(u)
		// ToUnit then FromUnit must reproduce the same integer.
		return d.FromUnit(d.ToUnit(v)) == v && d.Contains(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClip(t *testing.T) {
	d := Int("x", 3, 9)
	cases := []struct{ in, want float64 }{
		{2.2, 3}, {3, 3}, {6.4, 6}, {6.6, 7}, {9.7, 9}, {-100, 3},
	}
	for _, c := range cases {
		if got := d.Clip(c.in); got != c.want {
			t.Errorf("Clip(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	d := Int("x", 3, 9)
	if d.Contains(6.5) {
		t.Error("Contains(6.5) = true for int dimension")
	}
	if !d.Contains(9) {
		t.Error("Contains(9) = false")
	}
	if d.Contains(10) {
		t.Error("Contains(10) = true")
	}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := TryNew(); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := TryNew(Float("x", 1, 1)); err == nil {
		t.Error("degenerate bounds accepted")
	}
	if _, err := TryNew(Float("x", 0, 1), Int("x", 0, 3)); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := TryNew(Dimension{Name: "x", Kind: IntKind, Low: 0.5, High: 3}); err == nil {
		t.Error("non-integer int bounds accepted")
	}
	if _, err := TryNew(Categorical("c", "only")); err == nil {
		t.Error("single-category dimension accepted")
	}
	if _, err := TryNew(Dimension{Name: "x", Kind: FloatKind, Low: 0, High: 1, Log: true}); err == nil {
		t.Error("log dimension with low=0 accepted")
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	s := New(Int("http", 20, 60), Float("w", 0, 1), Categorical("alg", "ga", "de", "pso"))
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u := []float64{r.Float64(), r.Float64(), r.Float64()}
		x := s.FromUnit(u)
		if !s.Contains(x) {
			t.Fatalf("FromUnit produced out-of-space point %v", x)
		}
		x2 := s.FromUnit(s.ToUnit(x))
		// Int and categorical must round-trip exactly; float within eps.
		if x2[0] != x[0] || x2[2] != x[2] || math.Abs(x2[1]-x[1]) > 1e-12 {
			t.Fatalf("round trip %v -> %v", x, x2)
		}
	}
}

func TestSpaceIndexOfAndFormat(t *testing.T) {
	p := PlantNetProblem()
	s := p.Space
	if s.IndexOf("extract") != 3 {
		t.Errorf("IndexOf(extract) = %d, want 3", s.IndexOf("extract"))
	}
	if s.IndexOf("nope") != -1 {
		t.Errorf("IndexOf(nope) = %d, want -1", s.IndexOf("nope"))
	}
	got := s.Format([]float64{40, 40, 40, 7})
	want := "http=40 download=40 simsearch=40 extract=7"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

// TestEquation2Problem checks the paper's Equation 2: the Pl@ntNet search
// space bounds are ±50% of the production baseline of Table II.
func TestEquation2Problem(t *testing.T) {
	p := PlantNetProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	baseline := map[string]float64{"http": 40, "download": 40, "simsearch": 40}
	for name, base := range baseline {
		d := p.Space.Dim(p.Space.IndexOf(name))
		if d.Low != base*0.5 || d.High != base*1.5 {
			t.Errorf("%s bounds [%v,%v], want ±50%% of %v", name, d.Low, d.High, base)
		}
	}
	ext := p.Space.Dim(p.Space.IndexOf("extract"))
	if ext.Low != 3 || ext.High != 9 {
		t.Errorf("extract bounds [%v,%v], want [3,9]", ext.Low, ext.High)
	}
	if p.Objectives[0].Mode != Min || p.Objectives[0].Name != "user_resp_time" {
		t.Errorf("objective %+v, want min user_resp_time", p.Objectives[0])
	}
	if v := p.Violation([]float64{40, 40, 40, 7}); v != 0 {
		t.Errorf("baseline configuration has violation %v, want 0", v)
	}
	if v := p.Violation([]float64{61, 40, 40, 7}); v != 1 {
		t.Errorf("http=61 violation %v, want 1 (one above the bound)", v)
	}
}

func TestProblemConstraints(t *testing.T) {
	// Paper: "the maximum response time must be less than 3 seconds" style
	// metric constraint, expressed here on a variable for testability.
	p := PlantNetProblem()
	p.Constraints = []Constraint{{Name: "http_le_55", Fn: func(x []float64) float64 { return x[0] - 55 }}}
	for _, c := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{56, 40, 40, 7}, 1}, // constraint http<=55 enforced
		{[]float64{55, 40, 40, 7}, 0}, // boundary point is feasible
		{[]float64{58, 40, 40, 7}, 3},
	} {
		if v := p.Violation(c.x); math.Abs(v-c.want) > 1e-12 {
			t.Errorf("inequality: Violation(%v) = %v, want %v", c.x, v, c.want)
		}
	}

	// Equalities count only the residual beyond their tolerance.
	sum := func(x []float64) float64 { return x[0] + x[1] - 80 }
	p = PlantNetProblem()
	p.Equalities = []Equality{{Name: "sum", Fn: sum, Tol: 0.5}}
	for _, c := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{40, 40, 40, 7}, 0},    // zero residual
		{[]float64{40.25, 40, 40, 7}, 0}, // residual 0.25 inside Tol
		{[]float64{42, 40, 40, 7}, 1.5},  // residual 2 beyond Tol 0.5
	} {
		if v := p.Violation(c.x); math.Abs(v-c.want) > 1e-12 {
			t.Errorf("equality: Violation(%v) = %v, want %v", c.x, v, c.want)
		}
	}

	// Tol 0 means the default tolerance 1e-9, not an exact match.
	p.Equalities = []Equality{{Name: "sum", Fn: func(x []float64) float64 { return sum(x) + 5e-10 }}}
	if v := p.Violation([]float64{40, 40, 40, 7}); v != 0 {
		t.Errorf("residual 5e-10 under default Tol: Violation = %v, want 0", v)
	}
	p.Equalities = []Equality{{Name: "sum", Fn: func(x []float64) float64 { return sum(x) + 1e-6 }}}
	if v := p.Violation([]float64{40, 40, 40, 7}); math.Abs(v-(1e-6-1e-9)) > 1e-15 {
		t.Errorf("residual 1e-6 over default Tol: Violation = %v, want %v", v, 1e-6-1e-9)
	}
}

func TestViolationBounds(t *testing.T) {
	p := PlantNetProblem()
	v := p.Violation([]float64{10, 70, 40, 7})
	if math.Abs(v-20) > 1e-12 { // 10 below low(20) + 10 above high(60)
		t.Errorf("Violation = %v, want 20", v)
	}
	if p.Violation([]float64{40, 40, 40, 7}) != 0 {
		t.Error("feasible point has nonzero violation")
	}
}

func TestMultiObjective(t *testing.T) {
	s := New(Float("x", 0, 1))
	p := &Problem{Name: "fig4", Space: s, Objectives: []Objective{
		{Name: "comm_cost", Mode: Min}, {Name: "latency", Mode: Min},
	}}
	if !p.MultiObjective() {
		t.Error("MultiObjective() = false for 2 objectives")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if FloatKind.String() != "float" || IntKind.String() != "int" || CategoricalKind.String() != "categorical" {
		t.Error("Kind.String mismatch")
	}
	if Min.String() != "min" || Max.String() != "max" {
		t.Error("Mode.String mismatch")
	}
}
