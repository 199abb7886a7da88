package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// mulT returns a·bᵀ.
func mulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, Dot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

// mulVec returns m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed")
	}
	if r := m.Row(2); len(r) != 2 || r[0] != 5 || r[1] != 6 {
		t.Errorf("Row(2) = %v, want [5 6]", r)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 9 {
		t.Error("Clone aliases data")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
}

func randomSPD(r *rand.Rand, n int) *Matrix {
	// A = B Bᵀ + n*I is SPD.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	a := mulT(b, b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 20} {
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := mulT(ch.L, ch.L)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-8*float64(n)) {
					t.Fatalf("n=%d: LLᵀ[%d][%d]=%v want %v", n, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(10)
		a := randomSPD(rr, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rr.NormFloat64()
		}
		b := mulVec(a, xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.Solve(b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-6) {
				return false
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Error("indefinite matrix accepted")
	}
	b := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := NewCholesky(b); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := fromRows([][]float64{{4, 0}, {0, 9}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.LogDet(), math.Log(36), 1e-12) {
		t.Errorf("LogDet = %v, want log(36)", ch.LogDet())
	}
}

func TestSolveVecL(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(3)), 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	y := ch.SolveVecL(b)
	back := mulVec(ch.L, y)
	for i := range b {
		if !almostEq(back[i], b[i], 1e-9) {
			t.Fatalf("L*SolveVecL(b) != b at %d: %v vs %v", i, back[i], b[i])
		}
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

// TestSolveLBatchMatchesSolveVecL asserts the multi-RHS forward
// substitution is bit-identical, column by column, to the single-RHS path.
func TestSolveLBatchMatchesSolveVecL(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 3, 8, 25} {
		for _, cols := range []int{1, 2, 7} {
			a := randomSPD(r, n)
			ch, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			b := NewMatrix(n, cols)
			for i := range b.Data {
				b.Data[i] = r.NormFloat64()
			}
			y := ch.SolveLBatch(b)
			for j := 0; j < cols; j++ {
				col := make([]float64, n)
				for i := 0; i < n; i++ {
					col[i] = b.At(i, j)
				}
				want := ch.SolveVecL(col)
				for i := 0; i < n; i++ {
					if y.At(i, j) != want[i] {
						t.Fatalf("n=%d col %d row %d: batch %v != single %v", n, j, i, y.At(i, j), want[i])
					}
				}
			}
		}
	}
}

// TestSolveBatchShapeMismatchPanics pins the batch forward solve's
// contract for a right-hand side of the wrong height.
func TestSolveBatchShapeMismatchPanics(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(23)), 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	ch.SolveLBatch(NewMatrix(2, 2))
}
